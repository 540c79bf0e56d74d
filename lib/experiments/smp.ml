module Stats = Rtlf_engine.Stats
module Workload = Rtlf_workload.Workload
module Simulator = Rtlf_sim.Simulator
module Metrics = Rtlf_sim.Metrics

type cell = {
  sync_name : string;
  aur : Stats.summary;
  cmr : Stats.summary;
  migrations : float;  (** mean cross-core migrations per run *)
}

type row = {
  cores : int;
  dispatch : Simulator.dispatch;
  cells : cell list;  (** one per sync discipline, in {!syncs} order *)
}

let default_cores = [ 1; 2; 4 ]

let syncs =
  [
    ("lock-based", Common.lock_based);
    ("lock-free", Common.lock_free);
    ("spin-ticket", Common.spin_ticket);
    ("spin-mcs", Common.spin_mcs);
  ]

(* Offered load scales with the core count (target AL ≈ 0.9·m) so an
   m-core machine is as stressed as the single-core runs are: with the
   single-core load, the extra cores idle and every discipline trivially
   accrues ~100 % — degenerate, indistinguishable curves. Every job
   touches every object (as in Fig 9) to keep the sync disciplines'
   costs on the critical path. *)
let spec ~cores =
  {
    Workload.default with
    Workload.n_tasks = max Workload.default.Workload.n_tasks (3 * cores);
    target_al = 0.9 *. float_of_int cores;
    accesses_per_job = 10;
    n_objects = 10;
    access_work = Common.access_work;
    seed = 42;
  }

(* At m = 1 the two dispatch policies coincide (one queue either way),
   so only Global is swept there. *)
let points ?(cores = default_cores) () =
  List.concat_map
    (fun m ->
      List.map
        (fun d -> (m, d))
        (if m = 1 then [ Simulator.Global ]
         else [ Simulator.Global; Simulator.Partitioned ]))
    cores

let compute ?(mode = Common.Full) ?jobs ?cores () =
  let seeds = List.length (Common.seeds mode) in
  Common.map_points ?jobs
    (fun (m, dispatch) ->
      let tasks = Workload.make (spec ~cores:m) in
      let cells =
        List.map
          (fun (sync_name, sync) ->
            let p = Common.measure ~mode ?jobs ~cores:m ~dispatch ~sync tasks in
            {
              sync_name;
              aur = p.Metrics.aur;
              cmr = p.Metrics.cmr;
              migrations =
                float_of_int p.Metrics.migrations_total /. float_of_int seeds;
            })
          syncs
      in
      { cores = m; dispatch; cells })
    (points ?cores ())

let run ?(mode = Common.Full) ?jobs ?cores fmt =
  Report.section fmt
    "SMP: accrued utility vs core count, per sync discipline and dispatch";
  let rows = compute ~mode ?jobs ?cores () in
  List.iter
    (fun row ->
      Report.subsection fmt
        (Printf.sprintf "m=%d cores, %s dispatch (AL target %.2f)" row.cores
           (Simulator.dispatch_name row.dispatch)
           (spec ~cores:row.cores).Workload.target_al);
      Report.table fmt
        ~header:[ "sync"; "AUR"; "CMR"; "migrations/run" ]
        ~rows:
          (List.map
             (fun c ->
               [
                 c.sync_name;
                 Report.with_ci c.aur Report.pct;
                 Report.with_ci c.cmr Report.pct;
                 Printf.sprintf "%.1f" c.migrations;
               ])
             row.cells))
    rows
