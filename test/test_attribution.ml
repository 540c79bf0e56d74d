(* Causal attribution: the conservation invariant (components sum to
   sojourn bit-exactly) across every sync x sched combination, exact
   hand-trace decompositions, the sojourn multiset cross-check against
   the simulator's own samples, utility-loss reconstruction, blame
   aggregation, and the refusal / degradation paths for ring-buffered
   traces. *)

module Task = Rtlf_model.Task
module Sync = Rtlf_sim.Sync
module Simulator = Rtlf_sim.Simulator
module Trace = Rtlf_sim.Trace
module Workload = Rtlf_workload.Workload
module Attribution = Rtlf_obs.Attribution
module Blame = Rtlf_obs.Blame
module Spans = Rtlf_obs.Spans
module Chrome_trace = Rtlf_obs.Chrome_trace
module Csv = Rtlf_obs.Csv_export

(* --- randomised conservation across all configurations ---------------- *)

let spec_gen =
  QCheck.Gen.(
    let* n_tasks = int_range 2 8 in
    let* n_objects = int_range 1 6 in
    let* accesses = int_range 0 6 in
    let* load10 = int_range 2 14 in
    let* burst = int_range 1 3 in
    let* hetero = bool in
    let* seed = int_range 1 10_000 in
    return
      {
        Workload.default with
        Workload.n_tasks;
        n_objects;
        accesses_per_job = accesses;
        target_al = float_of_int load10 /. 10.0;
        tuf_class =
          (if hetero then Workload.Heterogeneous else Workload.Step_only);
        mean_exec = 50_000;
        access_work = 2_000;
        burst;
        seed;
      })

let spec_arb =
  QCheck.make spec_gen ~print:(fun spec ->
      Format.asprintf "%a (seed %d)" Workload.pp_spec spec
        spec.Workload.seed)

let sync_of_int = function
  | 0 -> Sync.Ideal
  | 1 -> Sync.Lock_free { overhead = 150 }
  | _ -> Sync.Lock_based { overhead = 2_000 }

let simulate ?(sync = 1) ?(sched = Simulator.Rua) ?trace_capacity ?cores spec =
  let tasks = Workload.make spec in
  let horizon = 40 * 50_000 * spec.Workload.n_tasks in
  ( tasks,
    Simulator.run
      (Simulator.config ~tasks ~sync:(sync_of_int sync) ~sched ~horizon
         ~seed:99 ~sched_base:200 ~sched_per_op:25 ~trace:true
         ?trace_capacity ?cores ()) )

let attribute_exn ~tasks trace =
  match Attribution.of_trace ~tasks trace with
  | Ok a -> a
  | Error msg -> QCheck.Test.fail_report ("attribution refused: " ^ msg)

(* Components sum to the sojourn on every job, for every discipline and
   scheduler; the utility-loss reconstruction identity holds; simulator
   traces never need the retry-transfer clamp. *)
let conservation_all_configs =
  QCheck.Test.make ~name:"attribution conserves on every sync x sched"
    ~count:8 spec_arb
    (fun spec ->
      List.for_all
        (fun sync ->
          List.for_all
            (fun sched ->
              let tasks, res = simulate ~sync ~sched spec in
              let a = attribute_exn ~tasks res.Simulator.trace in
              (match Attribution.check a with
              | Ok () -> ()
              | Error msg -> QCheck.Test.fail_report msg);
              if a.Attribution.anomalies <> 0 then
                QCheck.Test.fail_report "retry clamp on a simulator trace";
              List.for_all
                (fun (j : Attribution.job) ->
                  Attribution.components_total j = j.Attribution.sojourn
                  && j.Attribution.loss <> None)
                a.Attribution.jobs)
            [ Simulator.Rua; Simulator.Edf; Simulator.Edf_pip ])
        [ 0; 1; 2 ])

(* The attributed completed-job sojourns are exactly the simulator's
   own samples (as multisets) — attribution reconstructs arrival and
   completion times from the trace alone. *)
let sojourn_multiset =
  QCheck.Test.make ~name:"attributed sojourns match simulator samples"
    ~count:10
    QCheck.(pair spec_arb (int_bound 2))
    (fun (spec, sync) ->
      let tasks, res = simulate ~sync spec in
      let a = attribute_exn ~tasks res.Simulator.trace in
      let attributed =
        List.filter_map
          (fun (j : Attribution.job) ->
            match j.Attribution.outcome with
            | Attribution.Completed ->
              Some (float_of_int j.Attribution.sojourn)
            | Attribution.Aborted -> None)
          a.Attribution.jobs
        |> List.sort compare
      in
      let samples =
        Array.to_list res.Simulator.sojourn_samples |> List.sort compare
      in
      if attributed <> samples then
        QCheck.Test.fail_reportf "multiset mismatch: %d attributed, %d samples"
          (List.length attributed) (List.length samples)
      else true)

(* --- exact hand-trace decompositions ----------------------------------- *)

let tr entries =
  let t = Trace.create ~enabled:true () in
  List.iter (fun (time, kind) -> Trace.record t ~time kind) entries;
  t

let attribute_hand entries =
  match Attribution.of_trace (tr entries) with
  | Ok a -> a
  | Error msg -> Alcotest.fail ("attribution refused: " ^ msg)

let job a jid =
  match Attribution.find a ~jid with
  | Some j -> j
  | None -> Alcotest.failf "J%d not resolved" jid

let check_ok a =
  match Attribution.check a with Ok () -> () | Error m -> Alcotest.fail m

let test_preemption_decomposition () =
  let a =
    attribute_hand
      [
        (0, Trace.Arrive (0, 0, 0));
        (0, Trace.Arrive (1, 1, 0));
        (0, Trace.Start (0, 0));
        (10, Trace.Preempt (0, 1));
        (10, Trace.Start (1, 0));
        (30, Trace.Complete 1);
        (30, Trace.Start (0, 0));
        (50, Trace.Complete 0);
      ]
  in
  check_ok a;
  let j0 = job a 0 and j1 = job a 1 in
  Alcotest.(check int) "J0 own" 30 j0.Attribution.own;
  Alcotest.(check int) "J0 preempted" 20 j0.Attribution.preempted;
  Alcotest.(check int) "J0 sojourn" 50 j0.Attribution.sojourn;
  Alcotest.(check int) "J1 own" 20 j1.Attribution.own;
  Alcotest.(check int) "J1 preempted" 10 j1.Attribution.preempted;
  (* J0's lost time is charged to the specific preemptor. *)
  let charge =
    List.find
      (fun (c : Attribution.charge) -> c.Attribution.comp = Attribution.Preempted)
      j0.Attribution.charges
  in
  Alcotest.(check int) "J0 charged to J1" 1 charge.Attribution.by;
  Alcotest.(check int) "J0 charge ns" 20 charge.Attribution.ns

let test_blocking_decomposition () =
  let a =
    attribute_hand
      [
        (0, Trace.Arrive (0, 0, 0));
        (0, Trace.Arrive (1, 1, 0));
        (0, Trace.Acquire (1, 0));
        (0, Trace.Start (1, 0));
        (5, Trace.Block (0, 0));
        (15, Trace.Release (1, 0));
        (15, Trace.Wake (0, 0));
        (20, Trace.Complete 1);
        (20, Trace.Start (0, 0));
        (30, Trace.Complete 0);
      ]
  in
  check_ok a;
  let j0 = job a 0 in
  Alcotest.(check int) "J0 blocked" 10 j0.Attribution.blocked;
  Alcotest.(check int) "J0 preempted" 10 j0.Attribution.preempted;
  Alcotest.(check int) "J0 own" 10 j0.Attribution.own;
  let blocked =
    List.find
      (fun (c : Attribution.charge) -> c.Attribution.comp = Attribution.Blocked)
      j0.Attribution.charges
  in
  Alcotest.(check int) "blocked on holder" 1 blocked.Attribution.by;
  Alcotest.(check int) "blocked via object" 0 blocked.Attribution.obj

let test_retry_transfer () =
  let a =
    attribute_hand
      [
        (0, Trace.Arrive (0, 0, 0));
        (0, Trace.Start (0, 0));
        (10, Trace.Retry (0, 1, 7, 4));
        (12, Trace.Complete 0);
      ]
  in
  check_ok a;
  let j0 = job a 0 in
  Alcotest.(check int) "own excludes discarded attempt" 8
    j0.Attribution.own;
  Alcotest.(check int) "retry charged" 4 j0.Attribution.retry;
  Alcotest.(check int) "no anomaly" 0 a.Attribution.anomalies;
  let retry =
    List.find
      (fun (c : Attribution.charge) -> c.Attribution.comp = Attribution.Retry)
      j0.Attribution.charges
  in
  Alcotest.(check int) "invalidator blamed" 7 retry.Attribution.by;
  Alcotest.(check int) "object recorded" 1 retry.Attribution.obj

let test_retry_clamp_counts_anomaly () =
  (* lost > accumulated own time: the transfer clamps and is counted. *)
  let a =
    attribute_hand
      [
        (0, Trace.Arrive (0, 0, 0));
        (0, Trace.Start (0, 0));
        (3, Trace.Retry (0, 1, -1, 9));
        (5, Trace.Complete 0);
      ]
  in
  check_ok a;
  let j0 = job a 0 in
  Alcotest.(check int) "own" 2 j0.Attribution.own;
  Alcotest.(check int) "retry clamped to own" 3 j0.Attribution.retry;
  Alcotest.(check int) "anomaly counted" 1 a.Attribution.anomalies

let test_sched_and_abort_handler () =
  let a =
    attribute_hand
      [
        (0, Trace.Arrive (0, 0, 0));
        (0, Trace.Arrive (1, 1, 0));
        (0, Trace.Sched (1, 5));
        (5, Trace.Start (1, 0));
        (10, Trace.Abort (1, 5));
        (15, Trace.Start (0, 0));
        (20, Trace.Complete 0);
      ]
  in
  check_ok a;
  let j0 = job a 0 and j1 = job a 1 in
  Alcotest.(check int) "J1 aborted with own time" 5 j1.Attribution.own;
  Alcotest.(check bool) "J1 outcome" true
    (j1.Attribution.outcome = Attribution.Aborted);
  Alcotest.(check int) "J0 sched share" 5 j0.Attribution.sched;
  Alcotest.(check int) "J0 preempted by J1" 5 j0.Attribution.preempted;
  Alcotest.(check int) "J0 behind J1's abort handler" 5
    j0.Attribution.abort_handler;
  Alcotest.(check int) "J0 own" 5 j0.Attribution.own;
  let handler =
    List.find
      (fun (c : Attribution.charge) ->
        c.Attribution.comp = Attribution.Abort_handler)
      j0.Attribution.charges
  in
  Alcotest.(check int) "handler charged to aborted job" 1
    handler.Attribution.by

let test_idle_dispatch_latency () =
  let a =
    attribute_hand
      [
        (0, Trace.Arrive (0, 0, 0));
        (7, Trace.Start (0, 0));
        (10, Trace.Complete 0);
      ]
  in
  check_ok a;
  let j0 = job a 0 in
  Alcotest.(check int) "idle before dispatch" 7 j0.Attribution.idle;
  Alcotest.(check int) "own" 3 j0.Attribution.own

(* Arrival admitted at the true release time even though the Arrive
   record lags (scheduler cost straddled the release). *)
let test_late_arrive_record_uses_true_arrival () =
  let a =
    attribute_hand
      [
        (0, Trace.Arrive (0, 0, 0));
        (0, Trace.Start (0, 0));
        (8, Trace.Arrive (1, 1, 4));
        (10, Trace.Complete 0);
        (10, Trace.Start (1, 0));
        (16, Trace.Complete 1);
      ]
  in
  check_ok a;
  let j1 = job a 1 in
  Alcotest.(check int) "sojourn from true arrival" 12
    j1.Attribution.sojourn;
  Alcotest.(check int) "preempted from release onward" 6
    j1.Attribution.preempted;
  Alcotest.(check int) "own" 6 j1.Attribution.own

(* --- utility-loss decomposition ---------------------------------------- *)

let test_utility_loss_reconstruction () =
  let spec = { Workload.default with Workload.n_tasks = 4; seed = 5 } in
  let tasks, res = simulate ~sync:2 spec in
  let a = attribute_exn ~tasks res.Simulator.trace in
  Alcotest.(check bool) "jobs resolved" true (a.Attribution.jobs <> []);
  List.iter
    (fun (j : Attribution.job) ->
      match j.Attribution.loss with
      | None -> Alcotest.fail "loss missing with ~tasks"
      | Some l ->
        let s =
          l.Attribution.u_retry +. l.Attribution.u_blocked
          +. l.Attribution.u_preempted +. l.Attribution.u_sched
          +. l.Attribution.u_abort +. l.Attribution.u_idle
        in
        let loss = j.Attribution.max_utility -. j.Attribution.accrued in
        Alcotest.(check bool) "u_self reconstructs loss exactly" true
          (l.Attribution.u_self = loss -. s))
    a.Attribution.jobs;
  check_ok a

(* --- blame aggregation -------------------------------------------------- *)

let test_blame_edges () =
  let a =
    attribute_hand
      [
        (0, Trace.Arrive (0, 0, 0));
        (0, Trace.Arrive (1, 1, 0));
        (0, Trace.Acquire (1, 0));
        (0, Trace.Start (1, 0));
        (5, Trace.Block (0, 0));
        (15, Trace.Release (1, 0));
        (15, Trace.Wake (0, 0));
        (20, Trace.Complete 1);
        (20, Trace.Start (0, 0));
        (30, Trace.Complete 0);
      ]
  in
  let b = Blame.of_attribution a in
  let blocking =
    List.find (fun (e : Blame.edge) -> e.Blame.cause = Blame.Blocking) b.Blame.edges
  in
  Alcotest.(check int) "victim task" 0 blocking.Blame.victim_task;
  Alcotest.(check int) "culprit task" 1 blocking.Blame.culprit_task;
  Alcotest.(check int) "ns" 10 blocking.Blame.ns;
  Alcotest.(check int) "object" 0 blocking.Blame.obj;
  (* JSON doc carries the schema marker. *)
  (match Blame.to_json b with
  | Rtlf_obs.Json.Obj fields ->
    Alcotest.(check bool) "schema" true
      (List.assoc_opt "schema" fields
      = Some (Rtlf_obs.Json.Str "rtlf-blame-v1"))
  | _ -> Alcotest.fail "blame json not an object");
  (* total_ns covers every culprit-bearing charge. *)
  Alcotest.(check bool) "total >= blocking edge" true
    (b.Blame.total_ns >= blocking.Blame.ns)

(* --- ring-buffered (dropped) traces ------------------------------------- *)

let dropped_run ?(trace_capacity = 64) ?cores () =
  let spec =
    { Workload.default with Workload.n_tasks = 6; target_al = 0.9; seed = 3 }
  in
  let _, res = simulate ~sync:2 ~trace_capacity ?cores spec in
  res.Simulator.trace

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_attribution_refuses_dropped_trace () =
  let trace = dropped_run () in
  Alcotest.(check bool) "entries dropped" true (Trace.dropped trace > 0);
  match Attribution.of_trace trace with
  | Ok _ -> Alcotest.fail "attribution accepted an incomplete trace"
  | Error msg ->
    (* the error names the drop so the operator knows the remedy *)
    Alcotest.(check bool) "error names the drop" true
      (contains (String.lowercase_ascii msg) "dropped");
    Alcotest.(check bool) "error names the flag" true
      (contains msg "--trace-capacity")

(* Spans rebuilt from what a ring buffer kept are still intervals: job
   spans end by the last traced time, and never two run at once on one
   core. A running span's core is that of the [Start] that opened it.
   A scheduler span is [time, time + cost] of its entry, unclamped: the
   capacity-64 run's last one ends after the last traced time. *)
let test_spans_degrade_on_dropped_trace () =
  List.iter
    (fun (trace_capacity, cores) ->
      let trace = dropped_run ~trace_capacity ~cores () in
      Alcotest.(check bool) "entries dropped" true (Trace.dropped trace > 0);
      let spans = Spans.of_trace trace in
      Alcotest.(check bool) "spans still built" true (spans.Spans.running <> []);
      (* A scheduler span runs on for its charged cost past its entry,
         which can be the last one. *)
      List.iter
        (fun (s : Spans.span) ->
          let limit = if s.kind = Spans.Sched then s.start else s.stop in
          if not (s.start <= s.stop && limit <= spans.Spans.last_time) then
            Alcotest.failf "J%d %s span [%d, %d] outside [start, %d]" s.jid
              (Spans.kind_name s.kind) s.start s.stop spans.Spans.last_time)
        (List.concat
           Spans.[ spans.running; spans.blocking; spans.retries;
                   spans.accesses; spans.sched ]);
      let core_of = Hashtbl.create 64 and charged = ref [] in
      Trace.iter
        (function
          | { Trace.time; kind = Trace.Start (jid, core) } ->
            Hashtbl.replace core_of (jid, time) core
          | { Trace.time; kind = Trace.Sched (ops, cost) } ->
            charged := (time, time + cost, ops) :: !charged
          | _ -> ())
        trace;
      Alcotest.(check (list (triple int int int)))
        "sched spans keep their charged cost" (List.rev !charged)
        (List.map
           (fun (s : Spans.span) -> (s.start, s.stop, s.ops))
           spans.Spans.sched);
      if cores = 1 then
        Alcotest.(check bool) "a sched span ends after last_time" true
          (List.exists
             (fun (s : Spans.span) -> s.stop > spans.Spans.last_time)
             spans.Spans.sched);
      let on_core = Array.make cores [] in
      List.iter
        (fun (s : Spans.span) ->
          let core = Hashtbl.find core_of (s.jid, s.start) in
          on_core.(core) <- s :: on_core.(core))
        spans.Spans.running;
      Array.iteri
        (fun core spans ->
          let sorted =
            List.sort (fun (a : Spans.span) b -> compare a.start b.start) spans
          in
          ignore
            (List.fold_left
               (fun (prev : Spans.span option) (s : Spans.span) ->
                 (match prev with
                 | Some p when p.stop > s.start ->
                   Alcotest.failf "core %d: J%d [%d, %d] overlaps J%d [%d, %d]"
                     core p.jid p.start p.stop s.jid s.start s.stop
                 | _ -> ());
                 Some s)
               None sorted))
        on_core)
    [ (64, 1); (200, 4) ]

(* --- CSV round-trip ------------------------------------------------------ *)

let check_same_attribution (a1 : Attribution.t) (a2 : Attribution.t) =
  Alcotest.(check int) "same job count"
    (List.length a1.Attribution.jobs)
    (List.length a2.Attribution.jobs);
  List.iter2
    (fun (x : Attribution.job) (y : Attribution.job) ->
      Alcotest.(check int) "jid" x.Attribution.jid y.Attribution.jid;
      Alcotest.(check int) "sojourn" x.Attribution.sojourn
        y.Attribution.sojourn;
      Alcotest.(check int) "own" x.Attribution.own y.Attribution.own;
      Alcotest.(check int) "retry" x.Attribution.retry y.Attribution.retry;
      Alcotest.(check int) "blocked" x.Attribution.blocked
        y.Attribution.blocked;
      Alcotest.(check int) "preempted" x.Attribution.preempted
        y.Attribution.preempted;
      Alcotest.(check int) "sched" x.Attribution.sched y.Attribution.sched;
      Alcotest.(check int) "abort" x.Attribution.abort_handler
        y.Attribution.abort_handler;
      Alcotest.(check int) "idle" x.Attribution.idle y.Attribution.idle)
    a1.Attribution.jobs a2.Attribution.jobs

let test_csv_round_trip_preserves_attribution () =
  let spec =
    { Workload.default with Workload.n_tasks = 5; target_al = 0.8; seed = 9 }
  in
  let tasks, res = simulate ~sync:1 spec in
  let a1 = attribute_exn ~tasks res.Simulator.trace in
  let csv = Csv.to_string res.Simulator.trace in
  match Csv.of_string csv with
  | Error msg -> Alcotest.fail ("csv parse failed: " ^ msg)
  | Ok trace2 -> check_same_attribution a1 (attribute_exn ~tasks trace2)

(* Ids reach the trace walker unchecked from a CSV: a row starting a
   job on core 10^11 is legal, and nothing sizes an array by it. J1,
   ready while J0 runs there, is charged to J0. *)
let test_csv_outside_ids () =
  let rows =
    [
      "774000,arrive,0,,task=0;at=774000";
      "774000,arrive,1,,task=1;at=774000";
      "774399,start,0,,core=100000000000";
      "774500,start,1,,core=0";
      "775000,complete,0,,";
      "775200,complete,1,,";
    ]
  in
  match Csv.of_string (String.concat "\n" ((Csv.header :: rows) @ [ "" ])) with
  | Error msg -> Alcotest.fail ("csv rejected: " ^ msg)
  | Ok trace ->
    let a =
      match Attribution.of_trace trace with
      | Ok a -> a
      | Error msg -> Alcotest.fail ("attribution refused: " ^ msg)
    in
    check_ok a;
    let j0 = job a 0 and j1 = job a 1 in
    Alcotest.(check (list int)) "J0 idle, own" [ 399; 601 ]
      [ j0.Attribution.idle; j0.Attribution.own ];
    Alcotest.(check (list int)) "J1 idle, preempted, own" [ 399; 101; 700 ]
      [ j1.Attribution.idle; j1.Attribution.preempted; j1.Attribution.own ];
    Alcotest.(check (list int)) "J1 preempted by J0" [ 0 ]
      (List.filter_map
         (fun (c : Attribution.charge) ->
           if c.comp = Attribution.Preempted then Some c.by else None)
         j1.Attribution.charges);
    let spans = Spans.of_trace trace in
    Alcotest.(check (list (pair int int))) "running spans"
      [ (774399, 775000); (774500, 775200) ]
      (List.map (fun (s : Spans.span) -> (s.start, s.stop)) spans.Spans.running);
    Alcotest.(check bool) "chrome export" true
      (String.length (Chrome_trace.to_string trace) > 0)

(* A trace saved with CRLF line ends reads as its LF original. *)
let test_csv_crlf_attributes_as_lf () =
  let spec =
    { Workload.default with Workload.n_tasks = 3; target_al = 0.9; seed = 4 }
  in
  let tasks, res = simulate ~sync:2 spec in
  let lf = Csv.to_string res.Simulator.trace in
  let crlf = String.concat "\r\n" (String.split_on_char '\n' lf) in
  match (Csv.of_string lf, Csv.of_string crlf) with
  | Ok t1, Ok t2 ->
    check_same_attribution (attribute_exn ~tasks t1) (attribute_exn ~tasks t2)
  | Error msg, _ | _, Error msg -> Alcotest.fail ("csv parse failed: " ^ msg)

(* [rows] (after the header) must be rejected with an error starting
   with [prefix], which names the offending line. *)
let check_csv_rejected ~what rows ~prefix =
  match Csv.of_string (String.concat "\n" ((Csv.header :: rows) @ [ "" ])) with
  | Ok _ -> Alcotest.failf "%s trace accepted" what
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error starts with %S: %s" prefix msg)
      true
      (String.starts_with ~prefix msg)

let test_csv_rejects_time_reversal () =
  check_csv_rejected ~what:"time-reversed"
    [ "0,arrive,0,,task=0;at=0"; "5,start,0,,core=0"; "3,complete,0,," ]
    ~prefix:"line 4: t=3: earlier than the previous entry's t=5"

let test_csv_rejects_future_arrival () =
  check_csv_rejected ~what:"future-arrival"
    [ "0,arrive,0,,task=0;at=50"; "60,start,0,,core=0"; "70,complete,0,," ]
    ~prefix:"line 2: t=0: J0 arrives at=50, after the entry"

let test_csv_rejects_second_arrival () =
  check_csv_rejected ~what:"double-arrival"
    [
      "0,arrive,0,,task=0;at=0";
      "1,start,0,,core=0";
      "2,arrive,0,,task=0;at=2";
      "5,complete,0,,";
    ]
    ~prefix:"line 4: t=2: J0 arrives twice"

let test_csv_rejects_second_resolution () =
  check_csv_rejected ~what:"double-resolution"
    [
      "0,arrive,0,,task=0;at=0";
      "1,start,0,,core=0";
      "5,complete,0,,";
      "6,abort,0,,handler=0";
    ]
    ~prefix:"line 5: t=6: J0 already ended"

(* Histories the simulator cannot write: events of a job that never
   arrived, a job on two cores, a wake with no block, a release of an
   object the job does not hold. *)
let test_csv_rejects_impossible_histories () =
  let arrive = "0,arrive,0,,task=0;at=0" and start = "1,start,0,,core=0" in
  List.iter
    (fun (rows, prefix) -> check_csv_rejected ~what:prefix rows ~prefix)
    [
      ([ arrive; "1,start,7,,core=0" ], "line 3: t=1: J7 never arrived");
      ([ arrive; start; "2,complete,7,," ], "line 4: t=2: J7 never arrived");
      ( [ arrive; start; "2,start,0,,core=1" ],
        "line 4: t=2: J0 started on c1 while still occupying c0" );
      ( [ arrive; start; "2,wake,0,3," ],
        "line 4: t=2: J0 woken with object 3 without a prior block" );
      ( [ arrive; start; "2,release,0,3," ],
        "line 4: t=2: J0 released object 3 it did not hold" );
    ]

(* A ring-buffered trace lost its oldest entries, and with them the
   arrivals of the jobs its first rows name. *)
let test_csv_rejects_truncated_trace () =
  let trace = dropped_run () in
  Alcotest.(check bool) "entries dropped" true (Trace.dropped trace > 0);
  match String.split_on_char '\n' (Csv.to_string trace) with
  | _header :: rows ->
    check_csv_rejected ~what:"truncated"
      (List.filter (( <> ) "") rows)
      ~prefix:"line 2: t=11496667: J51 never arrived"
  | [] -> Alcotest.fail "empty CSV"

(* Times, durations, counts, jids, task ids, objects and cores cannot
   be negative; [by=-1] and an empty obj field are what the simulator
   writes and stay legal. *)
let test_csv_rejects_negative_fields () =
  let arrive = "0,arrive,1,,task=0;at=0" in
  List.iter
    (fun (row, prefix) ->
      check_csv_rejected ~what:row [ arrive; row ]
        ~prefix:("line 3: " ^ prefix))
    [
      ("10,retry,1,0,by=-1;lost=-50", "negative lost -50");
      ("10,abort,1,,handler=-3", "negative handler -3");
      ("10,sched,,,ops=-1;cost=5", "negative ops -1");
      ("10,sched,,,ops=1;cost=-5", "negative cost -5");
      ("10,start,1,,core=-2", "negative core -2");
      ("10,complete,-1,,", "negative jid -1");
      ("10,migrate,1,,from=-5;to=0", "negative from -5");
      ("10,migrate,1,,from=0;to=-2", "negative to -2");
      ("10,block,1,-4,", "negative obj -4");
    ];
  List.iter
    (fun (row, prefix) ->
      check_csv_rejected ~what:row [ row ] ~prefix:("line 2: " ^ prefix))
    [
      ("0,arrive,-4,,task=0;at=0", "negative jid -4");
      ("0,arrive,1,,task=-3;at=0", "negative task -3");
      ("0,arrive,1,,task=0;at=-5", "negative at -5");
      ("-100,arrive,1,,task=0;at=-100", "negative time -100");
    ];
  let legal = [ arrive; "10,retry,1,0,by=-1;lost=50"; "20,preempt,1,,by=-1" ] in
  match Csv.of_string (String.concat "\n" ((Csv.header :: legal) @ [ "" ])) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "legal by=-1 rows rejected: %s" msg

(* Each event carries a fixed set of [extra] keys, each at most once. *)
let test_csv_rejects_extra_keys () =
  List.iter
    (fun (row, prefix) ->
      check_csv_rejected ~what:row [ row ] ~prefix:("line 2: " ^ prefix))
    [
      ("0,arrive,0,,task=0;at=0;task=5;bogus=1", "repeated extra key \"task\"");
      ( "0,arrive,0,,task=0;at=0;bogus=1",
        "unknown extra key \"bogus\" for arrive" );
      ( "0,arrive,0,,task=0;at=0;core=0",
        "unknown extra key \"core\" for arrive" );
    ];
  let arrive = "0,arrive,1,,task=0;at=0" in
  List.iter
    (fun (row, prefix) ->
      check_csv_rejected ~what:row [ arrive; row ] ~prefix:("line 3: " ^ prefix))
    [
      ("5,start,1,,core=0;core=1", "repeated extra key \"core\"");
      ("5,complete,1,,handler=0", "unknown extra key \"handler\" for complete");
      ("5,block,1,0,by=2", "unknown extra key \"by\" for block");
    ]

(* Parser fuzzing: a valid CSV with a field dropped, duplicated, swapped
   or filled with junk, a row truncated, duplicated or swapped, or CRLF
   line ends either parses into a trace that obeys the trace contract
   or is refused with an error naming its line or the header. It never
   raises. Row 0 is the header, so it is mutated too. *)
type mutation =
  | Drop_field
  | Dup_field
  | Swap_fields
  | Junk of string
  | Truncate
  | Dup_row
  | Swap_rows
  | Crlf

let fuzz_bases =
  lazy
    (List.map
       (fun (sync, cores) ->
         let spec =
           {
             Workload.default with
             Workload.n_tasks = 3;
             target_al = 1.1;
             seed = 5;
           }
         in
         let _, res = simulate ~sync ~cores spec in
         List.filter (( <> ) "")
           (String.split_on_char '\n' (Csv.to_string res.Simulator.trace)))
       [ (1, 1); (2, 1); (2, 2) ])

(* [r] picks a row; [k] and [l] pick fields of it, or [k] a second row
   or where to cut. *)
let mutate rows (m, r, k, l) =
  let n = List.length rows in
  let r = r mod n in
  let edit f = List.mapi (fun i row -> if i = r then f row else row) rows in
  let fields f =
    edit (fun row ->
        let fs = String.split_on_char ',' row in
        let w = List.length fs in
        String.concat "," (f fs (k mod w) (l mod w)))
  in
  let swap xs a b =
    List.mapi
      (fun i x ->
        if i = a then List.nth xs b else if i = b then List.nth xs a else x)
      xs
  in
  match m with
  | Drop_field -> fields (fun fs k _ -> List.filteri (fun i _ -> i <> k) fs)
  | Dup_field -> fields (fun fs k _ -> fs @ [ List.nth fs k ])
  | Swap_fields -> fields swap
  | Junk j ->
    fields (fun fs k _ -> List.mapi (fun i f -> if i = k then j else f) fs)
  | Truncate ->
    edit (fun row -> String.sub row 0 (k mod (String.length row + 1)))
  | Dup_row ->
    List.concat_map (fun (i, row) -> if i = r then [ row; row ] else [ row ])
      (List.mapi (fun i row -> (i, row)) rows)
  | Swap_rows -> swap rows r (k mod n)
  | Crlf -> List.map (fun row -> row ^ "\r") rows

let mutation_name = function
  | Drop_field -> "drop field"
  | Dup_field -> "duplicate field"
  | Swap_fields -> "swap fields"
  | Junk j -> Printf.sprintf "junk %S" j
  | Truncate -> "truncate row"
  | Dup_row -> "duplicate row"
  | Swap_rows -> "swap rows"
  | Crlf -> "crlf"

let names_line msg =
  match String.index_opt msg ':' with
  | Some i when String.starts_with ~prefix:"line " msg && i > 5 ->
    String.for_all (fun c -> c >= '0' && c <= '9') (String.sub msg 5 (i - 5))
  | _ -> false

let csv_fuzz =
  let junk =
    [ ""; "x"; "-1"; "1e3"; "99999999999999999999"; ";"; "="; "a=b";
      "task=1;task=2"; "core=0"; " 7"; "\r" ]
  in
  let mutation =
    QCheck.Gen.(
      quad
        (oneof
           [
             oneofl
               [ Drop_field; Dup_field; Swap_fields; Truncate; Dup_row;
                 Swap_rows; Crlf ];
             map (fun j -> Junk j) (oneofl junk);
           ])
        nat nat nat)
  in
  let print (base, ms) =
    Printf.sprintf "base %d: %s" base
      (String.concat "; "
         (List.map
            (fun (m, r, k, l) ->
              Printf.sprintf "%s (%d, %d, %d)" (mutation_name m) r k l)
            ms))
  in
  QCheck.Test.make ~name:"mutated csv parses legally or names its line"
    ~count:300
    (QCheck.make ~print
       QCheck.Gen.(pair (int_bound 2) (list_size (int_range 1 3) mutation)))
    (fun (base, ms) ->
      let base = List.nth (Lazy.force fuzz_bases) base in
      let rows = List.fold_left mutate base ms in
      match Csv.of_string (String.concat "\n" rows ^ "\n") with
      | Ok trace -> Trace.check trace = Ok ()
      | Error msg ->
        names_line msg || String.starts_with ~prefix:"bad header" msg
        || QCheck.Test.fail_reportf "unnamed error %S" msg
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Test_support.run "attribution"
    [
      ( "conservation",
        List.map Test_support.to_alcotest
          [ conservation_all_configs; sojourn_multiset ] );
      ( "hand traces",
        [
          Alcotest.test_case "preemption split" `Quick
            test_preemption_decomposition;
          Alcotest.test_case "blocking charged to holder" `Quick
            test_blocking_decomposition;
          Alcotest.test_case "retry transfer" `Quick test_retry_transfer;
          Alcotest.test_case "retry clamp -> anomaly" `Quick
            test_retry_clamp_counts_anomaly;
          Alcotest.test_case "sched + abort handler" `Quick
            test_sched_and_abort_handler;
          Alcotest.test_case "idle dispatch latency" `Quick
            test_idle_dispatch_latency;
          Alcotest.test_case "late Arrive uses true arrival" `Quick
            test_late_arrive_record_uses_true_arrival;
        ] );
      ( "utility",
        [
          Alcotest.test_case "loss reconstruction exact" `Quick
            test_utility_loss_reconstruction;
        ] );
      ( "blame",
        [ Alcotest.test_case "task edges + json" `Quick test_blame_edges ] );
      ( "dropped traces",
        [
          Alcotest.test_case "attribution refuses" `Quick
            test_attribution_refuses_dropped_trace;
          Alcotest.test_case "spans degrade gracefully" `Quick
            test_spans_degrade_on_dropped_trace;
        ] );
      ( "csv",
        [
          Alcotest.test_case "round-trip preserves decomposition" `Quick
            test_csv_round_trip_preserves_attribution;
          Alcotest.test_case "time-reversed rows rejected" `Quick
            test_csv_rejects_time_reversal;
          Alcotest.test_case "future arrival rejected" `Quick
            test_csv_rejects_future_arrival;
          Alcotest.test_case "second arrival rejected" `Quick
            test_csv_rejects_second_arrival;
          Alcotest.test_case "second resolution rejected" `Quick
            test_csv_rejects_second_resolution;
          Alcotest.test_case "negative fields rejected" `Quick
            test_csv_rejects_negative_fields;
          Alcotest.test_case "impossible histories rejected" `Quick
            test_csv_rejects_impossible_histories;
          Alcotest.test_case "truncated trace rejected" `Quick
            test_csv_rejects_truncated_trace;
          Alcotest.test_case "unknown or repeated extra keys rejected" `Quick
            test_csv_rejects_extra_keys;
          Alcotest.test_case "crlf attributes as lf" `Quick
            test_csv_crlf_attributes_as_lf;
          Alcotest.test_case "outside ids size no array" `Quick
            test_csv_outside_ids;
          Test_support.to_alcotest csv_fuzz;
        ] );
    ]
