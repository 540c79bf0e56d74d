(* End-to-end nested-critical-section tests (§3.3): deadlock formation
   under lock-based RUA, victim selection, recovery, and the lock-free
   path's immunity. *)

module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Segment = Rtlf_model.Segment
module Sync = Rtlf_sim.Sync
module Simulator = Rtlf_sim.Simulator
module Trace = Rtlf_sim.Trace

let us n = n * 1_000
let ms n = n * 1_000_000

(* Two tasks taking two locks in opposite order with long inner
   computation: phased so that each acquires its first lock before the
   other requests it — the canonical deadlock. *)
(* T1's much tighter critical time guarantees it preempts T0 whenever
   it arrives inside T0's long inner window (holding the first lock) —
   then each blocks on the other's lock: a deadlock every overlap. *)
let deadlock_pair ~height0 ~height1 =
  let profile first second =
    [
      Segment.Lock first;
      Segment.Compute (us 1000);  (* long enough to interleave *)
      Segment.Lock second;
      Segment.Compute (us 50);
      Segment.Unlock second;
      Segment.Unlock first;
      Segment.Compute (us 20);
    ]
  in
  [
    Task.make_nested ~id:0 ~name:"forward"
      ~tuf:(Tuf.step ~height:height0 ~c:(us 4500))
      ~arrival:(Uam.periodic ~period:(us 5000))
      ~profile:(profile 0 1) ();
    Task.make_nested ~id:1 ~name:"backward"
      ~tuf:(Tuf.step ~height:height1 ~c:(us 3000))
      ~arrival:(Uam.periodic ~period:(us 4700))
      ~profile:(profile 1 0) ();
  ]

let lock_based = Sync.Lock_based { overhead = 100 }

let run ?(sync = lock_based) ?(horizon = ms 200) tasks =
  Simulator.run
    (Simulator.config ~tasks ~sync ~n_objects:2 ~horizon ~seed:3
       ~sched_base:0 ~sched_per_op:0 ~trace:true ())

(* The run's trace obeys the trace contract under lock-based sharing. *)
let check_trace res =
  match Trace.check ~sync:lock_based res.Simulator.trace with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* --- profile validation ------------------------------------------------ *)

let test_well_nested_accepts () =
  let good =
    [ Segment.Lock 0; Segment.Compute 5; Segment.Lock 1;
      Segment.Unlock 1; Segment.Unlock 0 ]
  in
  Alcotest.(check bool) "accepted" true (Segment.well_nested good = Ok ())

let test_well_nested_rejects () =
  let cases =
    [
      ("dangling lock", [ Segment.Lock 0 ]);
      ("unmatched unlock", [ Segment.Unlock 0 ]);
      ("double lock", [ Segment.Lock 0; Segment.Lock 0; Segment.Unlock 0 ]);
      ( "flat access to held",
        [ Segment.Lock 0; Segment.Access { obj = 0; work = 1; write = true };
          Segment.Unlock 0 ] );
    ]
  in
  List.iter
    (fun (name, profile) ->
      match Segment.well_nested profile with
      | Ok () -> Alcotest.failf "%s accepted" name
      | Error _ -> ())
    cases

let test_make_nested_validates () =
  match
    Task.make_nested ~id:0
      ~tuf:(Tuf.step ~height:1.0 ~c:100)
      ~arrival:(Uam.periodic ~period:200)
      ~profile:[ Segment.Lock 0 ] ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ill-nested profile accepted"

let test_make_nested_derives_exec () =
  let t =
    Task.make_nested ~id:0
      ~tuf:(Tuf.step ~height:1.0 ~c:1_000)
      ~arrival:(Uam.periodic ~period:1_000)
      ~profile:
        [ Segment.Compute 30; Segment.Lock 0; Segment.Compute 20;
          Segment.Unlock 0 ]
      ()
  in
  Alcotest.(check int) "exec = total compute" 50 t.Task.exec

(* --- nested execution without conflict --------------------------------- *)

let test_nested_single_task_completes () =
  let t =
    Task.make_nested ~id:0
      ~tuf:(Tuf.step ~height:10.0 ~c:(us 900))
      ~arrival:(Uam.periodic ~period:(us 1000))
      ~profile:
        [
          Segment.Lock 0; Segment.Compute (us 50); Segment.Lock 1;
          Segment.Compute (us 50); Segment.Unlock 1; Segment.Unlock 0;
        ]
      ()
  in
  let res = run ~horizon:(ms 50) [ t ] in
  Alcotest.(check bool) "jobs complete" true (res.Simulator.completed > 0);
  Alcotest.(check int) "no aborts" 0 res.Simulator.aborted;
  check_trace res

(* --- deadlock formation and resolution ------------------------------------ *)

let test_deadlock_detected_and_resolved () =
  let res = run (deadlock_pair ~height0:100.0 ~height1:1.0) in
  (* Deadlocks form repeatedly; the system must keep making progress:
     some jobs abort (victims), but completions continue. *)
  Alcotest.(check bool) "victims aborted" true (res.Simulator.aborted > 0);
  Alcotest.(check bool) "system keeps completing" true
    (res.Simulator.completed > 0);
  check_trace res

let test_deadlock_victim_is_low_utility () =
  (* §3.3: the cycle member contributing the least utility is aborted.
     With strongly asymmetric utilities the high-utility task must
     dominate completions. *)
  let res = run (deadlock_pair ~height0:100.0 ~height1:1.0) in
  let t0 = res.Simulator.per_task.(0) and t1 = res.Simulator.per_task.(1) in
  Alcotest.(check bool) "high-utility task completes more" true
    (t0.Simulator.completed >= t1.Simulator.completed);
  Alcotest.(check bool) "low-utility task pays the aborts" true
    (t1.Simulator.aborted >= t0.Simulator.aborted)

let test_no_deadlock_under_lock_free () =
  (* The same profiles under lock-free sharing: lock markers are
     no-ops, so no blocking, no deadlock, no victim aborts. *)
  let res =
    run ~sync:(Sync.Lock_free { overhead = 100 })
      (deadlock_pair ~height0:100.0 ~height1:1.0)
  in
  Alcotest.(check int) "no aborts" 0 res.Simulator.aborted;
  Alcotest.(check int) "no blocking" 0 res.Simulator.blocked_events;
  Alcotest.(check bool) "everything completes" true
    (res.Simulator.completed = res.Simulator.released)

let test_nested_contention_without_deadlock () =
  (* Same lock ORDER in both tasks: contention and blocking but never
     deadlock — aborts can only come from critical times, and at this
     load there are none. *)
  let profile =
    [
      Segment.Lock 0; Segment.Compute (us 100); Segment.Lock 1;
      Segment.Compute (us 50); Segment.Unlock 1; Segment.Unlock 0;
    ]
  in
  let mk id period =
    Task.make_nested ~id
      ~tuf:(Tuf.step ~height:10.0 ~c:(us (period - 100)))
      ~arrival:(Uam.periodic ~period:(us period))
      ~profile ()
  in
  let res = run [ mk 0 2000; mk 1 2300 ] in
  Alcotest.(check int) "no aborts" 0 res.Simulator.aborted;
  Alcotest.(check bool) "blocking occurred" true
    (res.Simulator.blocked_events > 0);
  check_trace res

let () =
  Test_support.run "nested"
    [
      ( "profiles",
        [
          Alcotest.test_case "well_nested accepts" `Quick
            test_well_nested_accepts;
          Alcotest.test_case "well_nested rejects" `Quick
            test_well_nested_rejects;
          Alcotest.test_case "make_nested validates" `Quick
            test_make_nested_validates;
          Alcotest.test_case "make_nested derives exec" `Quick
            test_make_nested_derives_exec;
        ] );
      ( "execution",
        [
          Alcotest.test_case "single task completes" `Quick
            test_nested_single_task_completes;
          Alcotest.test_case "contention without deadlock" `Quick
            test_nested_contention_without_deadlock;
        ] );
      ( "deadlocks",
        [
          Alcotest.test_case "detected and resolved" `Quick
            test_deadlock_detected_and_resolved;
          Alcotest.test_case "victim is low utility" `Quick
            test_deadlock_victim_is_low_utility;
          Alcotest.test_case "lock-free is immune" `Quick
            test_no_deadlock_under_lock_free;
        ] );
    ]
