module Stats = Rtlf_engine.Stats

type point = {
  aur : Stats.summary;
  cmr : Stats.summary;
  access_ns : Stats.summary;
  sojourn_p50_ns : Stats.summary;
  sojourn_p90_ns : Stats.summary;
  sojourn_p99_ns : Stats.summary;
  retries_total : int;
  max_retries : int;
  conflicts_total : int;
  blocked_ns_total : int;
  released : int;
  sched_overhead_ns : int;
  migrations_total : int;
}

let mean_access_ns (res : Simulator.result) =
  res.Simulator.access_samples.Stats.mean

let aggregate results =
  let aur = Stats.create ()
  and cmr = Stats.create ()
  and access = Stats.create ()
  and p50 = Stats.create ()
  and p90 = Stats.create ()
  and p99 = Stats.create () in
  let retries = ref 0
  and max_retries = ref 0
  and conflicts = ref 0
  and blocked_ns = ref 0
  and released = ref 0
  and overhead = ref 0
  and migrations = ref 0 in
  List.iter
    (fun (res : Simulator.result) ->
      Stats.add aur res.Simulator.aur;
      Stats.add cmr res.Simulator.cmr;
      let a = mean_access_ns res in
      if not (Float.is_nan a) then Stats.add access a;
      (* The histogram's percentiles are [Stats.percentile]'s over the
         same samples; a run with no completions contributes nothing. *)
      let h = res.Simulator.sojourn_hist in
      if h.Stats.n > 0 then begin
        Stats.add p50 h.Stats.p50;
        Stats.add p90 h.Stats.p90;
        Stats.add p99 h.Stats.p99
      end;
      retries := !retries + res.Simulator.retries_total;
      let t = Contention.totals res.Simulator.contention in
      conflicts := !conflicts + t.Contention.t_conflicts;
      blocked_ns := !blocked_ns + t.Contention.t_blocked_ns;
      released := !released + res.Simulator.released;
      overhead := !overhead + res.Simulator.sched_overhead;
      migrations := !migrations + res.Simulator.migrations;
      Array.iter
        (fun (tr : Simulator.task_result) ->
          if tr.Simulator.max_retries > !max_retries then
            max_retries := tr.Simulator.max_retries)
        res.Simulator.per_task)
    results;
  {
    aur = Stats.summary aur;
    cmr = Stats.summary cmr;
    access_ns = Stats.summary access;
    sojourn_p50_ns = Stats.summary p50;
    sojourn_p90_ns = Stats.summary p90;
    sojourn_p99_ns = Stats.summary p99;
    retries_total = !retries;
    max_retries = !max_retries;
    conflicts_total = !conflicts;
    blocked_ns_total = !blocked_ns;
    released = !released;
    sched_overhead_ns = !overhead;
    migrations_total = !migrations;
  }

let repeat ?jobs ~seeds ~run () =
  aggregate (Rtlf_engine.Pool.map ?jobs (fun seed -> run ~seed) seeds)
