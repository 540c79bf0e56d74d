module Workload = Rtlf_workload.Workload
module Simulator = Rtlf_sim.Simulator
module Static_mode = Rtlf_core.Static_mode

type row = {
  regime : string;
  n_tasks : int;
  seeds : int;
  stats : Static_mode.stats;
  dyn_s : float;
  static_s : float;
}

(* (name, target AL): sparse isolates releases so the decision table's
   ahead-of-time singleton templates serve arrivals; steady is the
   paper's base load; overload piles up live jobs, so few decides see a
   fresh release and almost all are delegated. *)
let regimes = [ ("sparse", 0.15); ("steady", 0.4); ("overload", 1.1) ]

let sizes mode =
  match mode with Common.Fast -> [ 8 ] | Common.Full -> [ 8; 32 ]

let spec ~n_tasks ~target_al =
  { Workload.default with Workload.n_tasks; target_al; seed = 7 }

(* The whole point of static mode is that these never differ. Anything
   beyond wall-clock drift is a bug, so fail loudly rather than report
   a table built on divergent runs. *)
let check_identical ~label (a : Simulator.result) (b : Simulator.result) =
  let fail field =
    failwith
      (Printf.sprintf
         "static_overhead: %s: static run diverged from dynamic on %s" label
         field)
  in
  let chk field ok = if not ok then fail field in
  chk "final_time" (a.Simulator.final_time = b.Simulator.final_time);
  chk "released" (a.Simulator.released = b.Simulator.released);
  chk "completed" (a.Simulator.completed = b.Simulator.completed);
  chk "met" (a.Simulator.met = b.Simulator.met);
  chk "aborted" (a.Simulator.aborted = b.Simulator.aborted);
  chk "in_flight" (a.Simulator.in_flight = b.Simulator.in_flight);
  chk "accrued" (Float.equal a.Simulator.accrued b.Simulator.accrued);
  chk "max_possible"
    (Float.equal a.Simulator.max_possible b.Simulator.max_possible);
  chk "aur" (Float.equal a.Simulator.aur b.Simulator.aur);
  chk "cmr" (Float.equal a.Simulator.cmr b.Simulator.cmr);
  chk "retries_total" (a.Simulator.retries_total = b.Simulator.retries_total);
  chk "preemptions" (a.Simulator.preemptions = b.Simulator.preemptions);
  chk "blocked_events"
    (a.Simulator.blocked_events = b.Simulator.blocked_events);
  chk "migrations" (a.Simulator.migrations = b.Simulator.migrations);
  chk "sched_invocations"
    (a.Simulator.sched_invocations = b.Simulator.sched_invocations);
  chk "sched_overhead"
    (a.Simulator.sched_overhead = b.Simulator.sched_overhead);
  chk "busy" (a.Simulator.busy = b.Simulator.busy);
  chk "sojourn_samples"
    (a.Simulator.sojourn_samples = b.Simulator.sojourn_samples)

let compute ?(mode = Common.Full) ?jobs () =
  let seeds = Common.seeds mode in
  let points =
    List.concat_map
      (fun (regime, target_al) ->
        List.map (fun n -> (regime, target_al, n)) (sizes mode))
      regimes
  in
  Common.map_points ?jobs
    (fun (regime, target_al, n_tasks) ->
      let tasks = Workload.make (spec ~n_tasks ~target_al) in
      let stats = ref Static_mode.zero_stats in
      let dyn_s = ref 0.0 and static_s = ref 0.0 in
      List.iter
        (fun seed ->
          let t0 = Unix.gettimeofday () in
          let dyn = Common.simulate ~mode ~seed tasks in
          let t1 = Unix.gettimeofday () in
          let sta =
            Common.simulate ~mode ~sched_mode:Simulator.Static ~seed tasks
          in
          let t2 = Unix.gettimeofday () in
          dyn_s := !dyn_s +. (t1 -. t0);
          static_s := !static_s +. (t2 -. t1);
          check_identical
            ~label:(Printf.sprintf "%s n=%d seed=%d" regime n_tasks seed)
            dyn sta;
          match sta.Simulator.static with
          | None -> failwith "static_overhead: static run reported no stats"
          | Some s -> stats := Static_mode.add_stats !stats s)
        seeds;
      {
        regime;
        n_tasks;
        seeds = List.length seeds;
        stats = !stats;
        dyn_s = !dyn_s;
        static_s = !static_s;
      })
    points

let pct part total =
  if total = 0 then "-"
  else Printf.sprintf "%.1f%%" (100.0 *. float_of_int part /. float_of_int total)

let run ?(mode = Common.Full) ?jobs fmt =
  Report.section fmt
    "Static vs dynamic scheduling overhead (results bit-identical by \
     construction; table shows how static mode served its decides)";
  let rows = compute ~mode ?jobs () in
  Report.table fmt
    ~header:
      [ "regime"; "n"; "decides"; "pattern"; "delegated"; "dyn s"; "static s" ]
    ~rows:
      (List.map
         (fun r ->
           let s = r.stats in
           [
             r.regime;
             string_of_int r.n_tasks;
             string_of_int s.Static_mode.decides;
             pct s.Static_mode.pattern_hits s.Static_mode.decides;
             pct s.Static_mode.delegated s.Static_mode.decides;
             Printf.sprintf "%.3f" r.dyn_s;
             Printf.sprintf "%.3f" r.static_s;
           ])
         rows)
