(* Tests for supporting modules: the trace contract, report
   tables, metrics aggregation, sync cost model. *)

module Stats = Rtlf_engine.Stats
module Trace = Rtlf_sim.Trace
module Sync = Rtlf_sim.Sync
module Metrics = Rtlf_sim.Metrics
module Simulator = Rtlf_sim.Simulator
module Workload = Rtlf_workload.Workload
module Report = Rtlf_experiments.Report
module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Segment = Rtlf_model.Segment

(* --- trace contract --------------------------------------------------------- *)

let tr entries =
  let t = Trace.create ~enabled:true () in
  List.iteri (fun i kind -> Trace.record t ~time:i kind) entries;
  t

let test_trace_disabled_records_nothing () =
  let t = Trace.create ~enabled:false () in
  Trace.record t ~time:0 (Trace.Arrive (1, 0, 0));
  Alcotest.(check int) "empty" 0 (List.length (Trace.entries t))

(* Jobs 1 and 2 arrive at t=0 and t=1; [tr] records [entries] after
   them, one ns apart. *)
let arrived entries =
  tr (Trace.Arrive (1, 0, 0) :: Trace.Arrive (2, 0, 1) :: entries)

let legal ?sync t =
  match Trace.check ?sync t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "legal trace rejected: %s" msg

(* [t] is rejected with a message that starts with [prefix]. *)
let rejected ?sync ~prefix t =
  match Trace.check ?sync t with
  | Ok () -> Alcotest.failf "%s: not caught" prefix
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error starts with %S: %s" prefix msg)
      true
      (String.starts_with ~prefix msg)

let test_mutual_exclusion_ok () =
  legal
    (arrived
       [ Trace.Acquire (1, 0); Trace.Release (1, 0); Trace.Acquire (2, 0);
         Trace.Release (2, 0) ])

let test_mutual_exclusion_violation () =
  rejected ~prefix:"t=3: J2 acquired object 0 already held by J1"
    (arrived [ Trace.Acquire (1, 0); Trace.Acquire (2, 0) ])

let test_release_without_acquire () =
  rejected ~prefix:"t=2: J1 released object 0 it did not hold"
    (arrived [ Trace.Release (1, 0) ])

let test_abort_releases_ok () =
  legal
    (arrived [ Trace.Acquire (1, 0); Trace.Release (1, 0); Trace.Abort (1, 0) ])

let test_abort_holding_violation () =
  rejected ~prefix:"t=3: J1 ended while holding 1 object(s)"
    (arrived [ Trace.Acquire (1, 0); Trace.Abort (1, 0) ])

(* One broken history per rule of the contract. *)
let test_contract_violations () =
  let lock_free = Sync.Lock_free { overhead = 1 }
  and spin = Sync.Spin { overhead = 1; kind = Sync.Ticket } in
  List.iter
    (fun (sync, entries, prefix) -> rejected ?sync ~prefix (arrived entries))
    [
      (None, [ Trace.Start (3, 0) ], "t=2: J3 never arrived");
      ( None,
        [ Trace.Complete 1; Trace.Start (1, 0) ],
        "t=3: J1 already ended" );
      (None, [ Trace.Arrive (1, 0, 2) ], "t=2: J1 arrives twice");
      (None, [ Trace.Arrive (3, 0, 9) ], "t=2: J3 arrives at=9");
      ( None,
        [ Trace.Start (1, 0); Trace.Start (1, 1) ],
        "t=3: J1 started on c1 while still occupying c0" );
      ( None,
        [ Trace.Start (1, 0); Trace.Start (2, 0) ],
        "t=3: J2 started on c0 while J1 still occupies it" );
      ( None,
        [ Trace.Start (1, 0); Trace.Migrate (1, 0, 1) ],
        "t=3: J1 migrated c0->c1 while occupying c0" );
      ( None,
        [ Trace.Migrate (1, 0, 1) ],
        "t=2: J1 migrated c0->c1 before ever running" );
      ( None,
        [ Trace.Start (1, 0); Trace.Preempt (1, -1); Trace.Migrate (1, 1, 0) ],
        "t=4: J1 migrated from c1 but last ran on c0" );
      ( None,
        [ Trace.Start (1, 0); Trace.Preempt (1, -1); Trace.Migrate (1, 0, 1);
          Trace.Start (1, 2) ],
        "t=5: J1 migrated towards c1 but started on c2" );
      ( None,
        [ Trace.Start (1, 0); Trace.Preempt (1, -1); Trace.Migrate (1, 0, 1);
          Trace.Migrate (1, 0, 2) ],
        "t=5: J1 migrated towards c2 with a migration to c1 pending" );
      ( None,
        [ Trace.Start (1, 0); Trace.Preempt (1, -1); Trace.Migrate (1, 0, 1) ],
        "t=4: J1 migrated to c1 but never started there" );
      ( Some lock_free,
        [ Trace.Block (1, 0) ],
        "t=2: J1 blocked on object 0 under non-lock-based" );
      ( Some lock_free,
        [ Trace.Wake (1, 0) ],
        "t=2: J1 woken with object 0 under non-lock-based" );
      ( None,
        [ Trace.Block (1, 0); Trace.Block (1, 1) ],
        "t=3: J1 blocked while already blocked" );
      (None, [ Trace.Wake (1, 0) ], "t=2: J1 woken with object 0 without");
      ( None,
        [ Trace.Block (1, 0); Trace.Wake (1, 1) ],
        "t=3: J1 woken with object 1 while blocked on 0" );
      ( None,
        [ Trace.Block (1, 0); Trace.Acquire (1, 0); Trace.Wake (1, 0) ],
        "t=3: J1 acquired object 0 while blocked on 0" );
      (* A spin-waiter keeps its core through Block. *)
      ( Some spin,
        [ Trace.Start (1, 0); Trace.Block (1, 0); Trace.Start (2, 0) ],
        "t=4: J2 started on c0 while J1 still occupies it" );
    ];
  (* Without the discipline a Block vacates the core, and an aborted
     waiter needs no Wake. *)
  legal
    (arrived [ Trace.Start (1, 0); Trace.Block (1, 0); Trace.Start (2, 0) ]);
  legal (arrived [ Trace.Block (1, 0); Trace.Abort (1, 0) ]);
  legal
    (arrived
       [ Trace.Acquire (2, 0); Trace.Block (1, 0); Trace.Release (2, 0);
         Trace.Wake (1, 0); Trace.Acquire (1, 0); Trace.Release (1, 0) ]);
  let t = tr [ Trace.Sched (1, 1); Trace.Sched (1, 1) ] in
  Trace.record t ~time:0 (Trace.Sched (1, 1));
  rejected ~prefix:"t=0: earlier than the previous entry's t=1" t;
  let ring = Trace.create ~capacity:2 ~enabled:true () in
  for _ = 1 to 4 do
    Trace.record ring ~time:0 (Trace.Sched (1, 1))
  done;
  rejected ~prefix:"t=0: the ring dropped 2 earlier entries" ring

let test_trace_counters () =
  let t =
    tr
      [ Trace.Preempt (1, 2); Trace.Preempt (2, -1); Trace.Sched (10, 450);
        Trace.Arrive (3, 0, 3) ]
  in
  Alcotest.(check int) "preemptions" 2
    (Trace.count t (function Trace.Preempt _ -> true | _ -> false));
  Alcotest.(check int) "sched" 1
    (Trace.count t (function Trace.Sched _ -> true | _ -> false))

(* --- report ------------------------------------------------------------------ *)

let render f =
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_table_alignment () =
  let out =
    render (fun fmt ->
        Report.table fmt ~header:[ "a"; "bee" ]
          ~rows:[ [ "xx"; "y" ]; [ "z"; "wwww" ] ])
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* All lines equally wide (trailing spaces trimmed may differ; check
     the rule covers both columns). *)
  Alcotest.(check bool) "rule present" true
    (String.length (List.nth lines 1) >= 7)

let test_table_pads_short_rows () =
  let out =
    render (fun fmt ->
        Report.table fmt ~header:[ "a"; "b"; "c" ] ~rows:[ [ "1" ] ])
  in
  Alcotest.(check bool) "no exception, row padded" true
    (String.length out > 0)

let test_formatters () =
  Alcotest.(check string) "f2" "3.14" (Report.f2 3.14159);
  Alcotest.(check string) "pct" "42.0%" (Report.pct 0.42);
  Alcotest.(check string) "ns_us" "1.50us" (Report.ns_us 1500.0)

let test_with_ci () =
  let s = Stats.of_list [ 1.0; 2.0; 3.0 ] in
  let str = Report.with_ci s Report.f2 in
  Alcotest.(check bool) "has +/-" true
    (String.length str > 4 && String.contains str '+');
  let empty = Stats.of_list [] in
  Alcotest.(check string) "empty dash" "-" (Report.with_ci empty Report.f2)

(* --- sync cost model ----------------------------------------------------------- *)

let test_sync_costs () =
  Alcotest.(check int) "lock-based = 2ov + work" 4_500
    (Sync.nominal_access_cost (Sync.Lock_based { overhead = 2_000 })
       ~work:500);
  Alcotest.(check int) "lock-free = ov + work" 650
    (Sync.nominal_access_cost (Sync.Lock_free { overhead = 150 }) ~work:500);
  Alcotest.(check int) "ideal = 0" 0
    (Sync.nominal_access_cost Sync.Ideal ~work:500)

let test_sync_lock_events () =
  Alcotest.(check bool) "lock-based has lock events" true
    (Sync.uses_lock_events (Sync.Lock_based { overhead = 1 }));
  Alcotest.(check bool) "lock-free has none" false
    (Sync.uses_lock_events (Sync.Lock_free { overhead = 1 }));
  Alcotest.(check bool) "ideal has none" false
    (Sync.uses_lock_events Sync.Ideal)

let test_sync_names () =
  Alcotest.(check string) "lb" "lock-based"
    (Sync.name (Sync.Lock_based { overhead = 1 }));
  Alcotest.(check string) "lf" "lock-free"
    (Sync.name (Sync.Lock_free { overhead = 1 }));
  Alcotest.(check string) "ideal" "ideal" (Sync.name Sync.Ideal)

(* --- metrics aggregation --------------------------------------------------------- *)

let test_metrics_repeat () =
  let tasks =
    [
      Task.make ~id:0
        ~tuf:(Tuf.step ~height:10.0 ~c:900_000)
        ~arrival:(Uam.periodic ~period:1_000_000)
        ~exec:100_000 ()
    ]
  in
  let run ~seed =
    Simulator.run
      (Simulator.config ~tasks ~sync:Sync.Ideal ~horizon:50_000_000 ~seed ())
  in
  let point = Metrics.repeat ~seeds:[ 1; 2; 3 ] ~run () in
  Alcotest.(check int) "three runs" 3 point.Metrics.aur.Stats.n;
  Alcotest.(check (float 1e-9)) "aur 1.0" 1.0 point.Metrics.aur.Stats.mean;
  Alcotest.(check bool) "released accumulated" true
    (point.Metrics.released > 100)

(* --- simulator config inference ---------------------------------------------------- *)

let test_infer_objects_includes_reads_and_profiles () =
  let reader =
    Task.make ~id:0
      ~tuf:(Tuf.step ~height:1.0 ~c:900)
      ~arrival:(Uam.periodic ~period:1_000)
      ~exec:10 ~reads:[ (4, 1) ] ()
  in
  let nested =
    Task.make_nested ~id:1
      ~tuf:(Tuf.step ~height:1.0 ~c:900)
      ~arrival:(Uam.periodic ~period:1_000)
      ~profile:[ Segment.Lock 7; Segment.Compute 5; Segment.Unlock 7 ]
      ()
  in
  let cfg =
    Simulator.config ~tasks:[ reader; nested ] ~sync:Sync.Ideal
      ~horizon:10_000 ()
  in
  Alcotest.(check int) "inferred from reads and profile" 8
    cfg.Simulator.n_objects

let test_workload_readers_split () =
  let spec =
    { Workload.default with Workload.n_tasks = 4; readers = 2;
      accesses_per_job = 3 }
  in
  let tasks = Workload.make spec in
  let writers, readers =
    List.partition (fun t -> t.Task.accesses <> []) tasks
  in
  Alcotest.(check int) "2 writers" 2 (List.length writers);
  Alcotest.(check int) "2 readers" 2 (List.length readers);
  List.iter
    (fun t -> Alcotest.(check int) "reader m" 3 (List.length t.Task.reads))
    readers

let () =
  Test_support.run "misc"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "mutual exclusion ok" `Quick
            test_mutual_exclusion_ok;
          Alcotest.test_case "mutual exclusion violation" `Quick
            test_mutual_exclusion_violation;
          Alcotest.test_case "release without acquire" `Quick
            test_release_without_acquire;
          Alcotest.test_case "abort releases ok" `Quick test_abort_releases_ok;
          Alcotest.test_case "abort holding violation" `Quick
            test_abort_holding_violation;
          Alcotest.test_case "contract violations" `Quick
            test_contract_violations;
          Alcotest.test_case "counters" `Quick test_trace_counters;
        ] );
      ( "report",
        [
          Alcotest.test_case "table alignment" `Quick test_table_alignment;
          Alcotest.test_case "pads short rows" `Quick
            test_table_pads_short_rows;
          Alcotest.test_case "formatters" `Quick test_formatters;
          Alcotest.test_case "with_ci" `Quick test_with_ci;
        ] );
      ( "sync",
        [
          Alcotest.test_case "nominal costs" `Quick test_sync_costs;
          Alcotest.test_case "lock events" `Quick test_sync_lock_events;
          Alcotest.test_case "names" `Quick test_sync_names;
        ] );
      ( "metrics",
        [ Alcotest.test_case "repeat aggregates" `Quick test_metrics_repeat ] );
      ( "config",
        [
          Alcotest.test_case "infer objects (reads, profiles)" `Quick
            test_infer_objects_includes_reads_and_profiles;
          Alcotest.test_case "workload readers split" `Quick
            test_workload_readers_split;
        ] );
    ]
