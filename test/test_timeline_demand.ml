(* Tests for the timeline renderer and the demand-bound analysis,
   including cross-validation of the analysis against the simulator. *)

module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Sync = Rtlf_sim.Sync
module Simulator = Rtlf_sim.Simulator
module Timeline = Rtlf_obs.Timeline
module Trace = Rtlf_sim.Trace
module Demand_bound = Rtlf_core.Demand_bound
module Workload = Rtlf_workload.Workload

let us n = n * 1_000
let ms n = n * 1_000_000

let periodic ~id ~period ~c ~exec =
  Task.make ~id ~tuf:(Tuf.step ~height:10.0 ~c)
    ~arrival:(Uam.periodic ~period) ~exec ()

let traced_run ?(sync = Sync.Ideal) ?(horizon = ms 20) tasks =
  Simulator.run
    (Simulator.config ~tasks ~sync ~horizon ~seed:3 ~sched_base:0
       ~sched_per_op:0 ~trace:true ())

(* --- timeline --------------------------------------------------------------- *)

let test_timeline_structure () =
  let tasks =
    [ periodic ~id:0 ~period:(us 1000) ~c:(us 900) ~exec:(us 200) ] in
  let res = traced_run tasks in
  let tl = Timeline.build ~buckets:40 res.Simulator.trace in
  Alcotest.(check bool) "rows exist" true (tl.Timeline.rows <> []);
  List.iter
    (fun row ->
      Alcotest.(check int) "row width" 40
        (Array.length row.Timeline.cells))
    tl.Timeline.rows

let test_timeline_shows_runs_and_completions () =
  let tasks =
    [ periodic ~id:0 ~period:(us 1000) ~c:(us 900) ~exec:(us 200) ] in
  let res = traced_run tasks in
  (* Fine buckets so a job's run spans more columns than its completion
     mark. *)
  let tl = Timeline.build ~buckets:400 res.Simulator.trace in
  let all_cells =
    List.concat_map
      (fun row -> Array.to_list row.Timeline.cells)
      tl.Timeline.rows
  in
  Alcotest.(check bool) "has run cells" true
    (List.mem Timeline.Run all_cells);
  Alcotest.(check bool) "has completion cells" true
    (List.mem Timeline.Done all_cells);
  Alcotest.(check bool) "no aborts in underload" false
    (List.mem Timeline.Killed all_cells)

let test_timeline_large_trace () =
  (* Hundreds of thousands of entries: [Timeline.build] must stay a
     single pass over the entry list (no intermediate per-entry lists)
     and finish promptly. *)
  let n = 200_000 in
  let trace = Trace.create ~enabled:true () in
  for i = 0 to n - 1 do
    let jid = i mod 1_000 in
    let t = i * 5_000 in
    Trace.record trace ~time:t (Trace.Arrive (jid, jid, t));
    Trace.record trace ~time:(t + 1_000) (Trace.Start (jid, 0));
    Trace.record trace ~time:(t + 4_000) (Trace.Complete jid)
  done;
  let tl = Timeline.build ~buckets:72 ~max_jobs:20 trace in
  Alcotest.(check int) "origin" 0 tl.Timeline.origin;
  Alcotest.(check bool) "rows bounded" true
    (List.length tl.Timeline.rows <= 20);
  List.iter
    (fun row ->
      Alcotest.(check int) "row width" 72 (Array.length row.Timeline.cells))
    tl.Timeline.rows

let test_timeline_shows_aborts () =
  (* exec > c: every job aborts. *)
  let tasks =
    [ periodic ~id:0 ~period:(us 1000) ~c:(us 300) ~exec:(us 500) ] in
  let res = traced_run tasks in
  let tl = Timeline.build res.Simulator.trace in
  let all_cells =
    List.concat_map
      (fun row -> Array.to_list row.Timeline.cells)
      tl.Timeline.rows
  in
  Alcotest.(check bool) "has abort cells" true
    (List.mem Timeline.Killed all_cells)

let test_timeline_render_shape () =
  let tasks =
    [ periodic ~id:0 ~period:(us 1000) ~c:(us 900) ~exec:(us 100) ] in
  let res = traced_run ~horizon:(ms 5) tasks in
  let tl = Timeline.build ~buckets:30 ~max_jobs:3 res.Simulator.trace in
  let rendered = Timeline.render tl in
  let lines = String.split_on_char '\n' rendered in
  (* header + <=3 job rows + optional truncation footer + trailing
     newline *)
  Alcotest.(check bool) "bounded rows" true (List.length lines <= 6);
  Alcotest.(check bool) "mentions legend" true
    (String.length (List.nth lines 0) > 10)

let test_timeline_truncation_surfaced () =
  (* 5 jobs through a 3-row timeline: the two dropped jobs must be
     counted and announced in the rendering, never silently cut. *)
  let trace = Trace.create ~enabled:true () in
  for jid = 0 to 4 do
    let t = jid * 100 in
    Trace.record trace ~time:t (Trace.Arrive (jid, 0, t));
    Trace.record trace ~time:(t + 10) (Trace.Start (jid, 0));
    Trace.record trace ~time:(t + 90) (Trace.Complete jid)
  done;
  let tl = Timeline.build ~buckets:10 ~max_jobs:3 trace in
  Alcotest.(check int) "rows capped" 3 (List.length tl.Timeline.rows);
  Alcotest.(check int) "truncated count" 2 tl.Timeline.truncated;
  let rendered = Timeline.render tl in
  Alcotest.(check bool) "footer announces the cut" true
    (let needle = "+2 job(s)" in
     let rec contains i =
       i + String.length needle <= String.length rendered
       && (String.sub rendered i (String.length needle) = needle
          || contains (i + 1))
     in
     contains 0);
  (* No footer when nothing is cut. *)
  let full = Timeline.build ~buckets:10 ~max_jobs:5 trace in
  Alcotest.(check int) "nothing truncated" 0 full.Timeline.truncated;
  Alcotest.(check bool) "no footer" true
    (not (String.length (Timeline.render full) > 0
         && String.contains (Timeline.render full) '+'))

let test_timeline_validation () =
  let trace = Trace.create ~enabled:true () in
  Alcotest.check_raises "empty trace"
    (Invalid_argument "Timeline.build: empty trace") (fun () ->
      ignore (Timeline.build trace));
  Trace.record trace ~time:0 (Trace.Arrive (0, 0, 0));
  Alcotest.check_raises "bad buckets"
    (Invalid_argument "Timeline.build: buckets must be positive") (fun () ->
      ignore (Timeline.build ~buckets:0 trace))

let test_cell_chars_distinct () =
  let cells =
    [ Timeline.Idle; Timeline.Run; Timeline.Blocked; Timeline.Retried;
      Timeline.Done; Timeline.Killed ]
  in
  let chars = List.map Timeline.cell_char cells in
  Alcotest.(check int) "all distinct" (List.length chars)
    (List.length (List.sort_uniq compare chars))

(* --- demand bound ------------------------------------------------------------- *)

let test_jobs_in_interval () =
  let t = periodic ~id:0 ~period:1000 ~c:800 ~exec:100 in
  Alcotest.(check int) "below C" 0 (Demand_bound.jobs_in_interval t ~t:799);
  Alcotest.(check int) "at C" 1 (Demand_bound.jobs_in_interval t ~t:800);
  Alcotest.(check int) "C + W" 2
    (Demand_bound.jobs_in_interval t ~t:1800);
  Alcotest.(check int) "C + 2W" 3
    (Demand_bound.jobs_in_interval t ~t:2800)

let test_demand_accumulates () =
  let t1 = periodic ~id:0 ~period:1000 ~c:800 ~exec:100 in
  let t2 = periodic ~id:1 ~period:2000 ~c:1500 ~exec:300 in
  let cost = Task.total_work in
  Alcotest.(check int) "only t1" 100
    (Demand_bound.demand ~tasks:[ t1; t2 ] ~cost ~t:800);
  Alcotest.(check int) "both" 400
    (Demand_bound.demand ~tasks:[ t1; t2 ] ~cost ~t:1500)

let test_schedulable_underload () =
  let tasks =
    [
      periodic ~id:0 ~period:1000 ~c:900 ~exec:200;
      periodic ~id:1 ~period:2000 ~c:1800 ~exec:400;
    ]
  in
  Alcotest.(check bool) "schedulable" true
    (Demand_bound.schedulable ~tasks ())

let test_unschedulable_overload () =
  let tasks =
    [
      periodic ~id:0 ~period:1000 ~c:900 ~exec:600;
      periodic ~id:1 ~period:1000 ~c:900 ~exec:600;
    ]
  in
  Alcotest.(check bool) "not schedulable" false
    (Demand_bound.schedulable ~tasks ())

let test_utilization_bound () =
  let t1 = periodic ~id:0 ~period:1000 ~c:900 ~exec:250 in
  Alcotest.(check (float 1e-9)) "rate" 0.25
    (Demand_bound.utilization_bound ~tasks:[ t1 ] ~cost:Task.total_work)

let test_checkpoints_sorted_unique () =
  let tasks =
    [
      periodic ~id:0 ~period:1000 ~c:800 ~exec:10;
      periodic ~id:1 ~period:1000 ~c:800 ~exec:10;
    ]
  in
  let cps = Demand_bound.checkpoints ~tasks ~horizon:5000 in
  Alcotest.(check (list int)) "steps of C + kW" [ 800; 1800; 2800; 3800; 4800 ]
    cps

(* Cross-validation: a demand-schedulable periodic set must simulate
   with zero misses under RUA (ideal sharing, zero overhead). *)
let prop_schedulable_implies_no_misses =
  QCheck.Test.make ~name:"demand-schedulable => miss-free simulation"
    ~count:60
    QCheck.(
      pair (int_range 1 40)
        (list_of_size (Gen.int_range 1 4) (int_range 1 30)))
    (fun (u1, rest) ->
      let mk id u =
        periodic ~id ~period:(us 100) ~c:(us 90) ~exec:(us u)
      in
      let tasks = List.mapi (fun i u -> mk i u) (u1 :: rest) in
      QCheck.assume (Demand_bound.schedulable ~tasks ());
      let res = traced_run ~horizon:(ms 20) tasks in
      res.Simulator.met = res.Simulator.released)

let test_workload_demand_consistency () =
  (* A light generated workload should pass the demand test with the
     lock-free cost model; a heavy one must fail the utilization
     bound. *)
  let light =
    Workload.make { Workload.default with Workload.target_al = 0.2 }
  in
  let cost task =
    task.Task.exec
    + (Task.num_accesses task * 650)
  in
  Alcotest.(check bool) "light is schedulable" true
    (Demand_bound.schedulable ~tasks:light ~cost ());
  let heavy =
    Workload.make { Workload.default with Workload.target_al = 2.5 }
  in
  Alcotest.(check bool) "heavy exceeds rate 1" true
    (Demand_bound.utilization_bound ~tasks:heavy ~cost > 1.0)

let () =
  Test_support.run "timeline_demand"
    [
      ( "timeline",
        [
          Alcotest.test_case "structure" `Quick test_timeline_structure;
          Alcotest.test_case "runs and completions" `Quick
            test_timeline_shows_runs_and_completions;
          Alcotest.test_case "aborts visible" `Quick test_timeline_shows_aborts;
          Alcotest.test_case "large trace" `Quick test_timeline_large_trace;
          Alcotest.test_case "render shape" `Quick test_timeline_render_shape;
          Alcotest.test_case "truncation surfaced" `Quick
            test_timeline_truncation_surfaced;
          Alcotest.test_case "validation" `Quick test_timeline_validation;
          Alcotest.test_case "cell chars distinct" `Quick
            test_cell_chars_distinct;
        ] );
      ( "demand_bound",
        [
          Alcotest.test_case "jobs in interval" `Quick test_jobs_in_interval;
          Alcotest.test_case "demand accumulates" `Quick
            test_demand_accumulates;
          Alcotest.test_case "schedulable underload" `Quick
            test_schedulable_underload;
          Alcotest.test_case "unschedulable overload" `Quick
            test_unschedulable_overload;
          Alcotest.test_case "utilization bound" `Quick test_utilization_bound;
          Alcotest.test_case "checkpoints" `Quick
            test_checkpoints_sorted_unique;
          Test_support.to_alcotest prop_schedulable_implies_no_misses;
          Alcotest.test_case "workload consistency" `Quick
            test_workload_demand_consistency;
        ] );
    ]
