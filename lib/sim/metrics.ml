module Stats = Rtlf_engine.Stats

type point = {
  aur : Stats.summary;
  cmr : Stats.summary;
  access_ns : Stats.summary;
  released : int;
  migrations_total : int;
}

let aggregate results =
  let aur = Stats.create ()
  and cmr = Stats.create ()
  and access = Stats.create () in
  let released = ref 0 and migrations = ref 0 in
  List.iter
    (fun (res : Simulator.result) ->
      Stats.add aur res.Simulator.aur;
      Stats.add cmr res.Simulator.cmr;
      let a = res.Simulator.access_samples.Stats.mean in
      if not (Float.is_nan a) then Stats.add access a;
      released := !released + res.Simulator.released;
      migrations := !migrations + res.Simulator.migrations)
    results;
  {
    aur = Stats.summary aur;
    cmr = Stats.summary cmr;
    access_ns = Stats.summary access;
    released = !released;
    migrations_total = !migrations;
  }

let repeat ?jobs ~seeds ~run () =
  aggregate (Rtlf_engine.Pool.map ?jobs (fun seed -> run ~seed) seeds)
