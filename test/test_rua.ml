(* Scheduler tests: PUD, EDF, lock-free RUA, lock-based RUA with
   dependency chains and deadlock resolution. *)

module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Task = Rtlf_model.Task
module Job = Rtlf_model.Job
module Resource = Rtlf_model.Resource
module Lock_manager = Rtlf_model.Lock_manager
module Pud = Rtlf_core.Pud
module Scheduler = Rtlf_core.Scheduler
module Edf = Rtlf_core.Edf
module Rua_lf = Rtlf_core.Rua_lock_free
module Rua_lb = Rtlf_core.Rua_lock_based

let job ?(height = 10.0) ?tuf ~jid ~ct ~rem ?(arrival = 0) () =
  let tuf = match tuf with Some f -> f | None -> Tuf.step ~height ~c:ct in
  let task =
    Task.make ~id:jid ~tuf
      ~arrival:(Uam.periodic ~period:(2 * ct))
      ~exec:rem ()
  in
  Job.create ~task ~jid ~arrival

let remaining = Job.remaining_nominal

(* --- PUD ----------------------------------------------------------------- *)

let test_pud_single_job () =
  (* Utility 10 accrued over 100ns of work: PUD = 0.1/ns. *)
  let j = job ~jid:0 ~ct:1000 ~rem:100 () in
  Alcotest.(check (float 1e-9)) "pud" 0.1
    (Pud.of_job ~now:0 ~remaining j)

let test_pud_chain_aggregates () =
  (* Chain <A, B>: A (rem 100, U 10) then B (rem 100, U 30):
     total utility 40 over 200ns = 0.2. *)
  let a = job ~height:10.0 ~jid:0 ~ct:1000 ~rem:100 () in
  let b = job ~height:30.0 ~jid:1 ~ct:1000 ~rem:100 () in
  Alcotest.(check (float 1e-9)) "aggregate pud" 0.2
    (Pud.of_chain ~now:0 ~remaining [ a; b ])

let test_pud_zero_beyond_critical_time () =
  (* A job that cannot finish before its critical time contributes no
     utility: estimated completion 150 > ct 100. *)
  let j = job ~jid:0 ~ct:100 ~rem:150 () in
  Alcotest.(check (float 1e-9)) "pud 0" 0.0 (Pud.of_job ~now:0 ~remaining j)

let test_pud_depends_on_now () =
  let j = job ~jid:0 ~ct:1000 ~rem:100 () in
  let early = Pud.of_job ~now:0 ~remaining j in
  (* With a linear TUF, later completion accrues less. *)
  let lin = job ~tuf:(Tuf.linear ~u0:10.0 ~c:1000) ~jid:1 ~ct:1000 ~rem:100 () in
  let at0 = Pud.of_job ~now:0 ~remaining lin in
  let at500 = Pud.of_job ~now:500 ~remaining lin in
  Alcotest.(check bool) "linear decays" true (at500 < at0);
  Alcotest.(check bool) "step constant before ct" true
    (early = Pud.of_job ~now:500 ~remaining j)

let test_pud_infinite_on_zero_work () =
  let j = job ~jid:0 ~ct:100 ~rem:0 () in
  Alcotest.(check bool) "infinite" true
    (Pud.of_job ~now:0 ~remaining j = infinity)

let test_pud_empty_chain_rejected () =
  Alcotest.check_raises "empty chain"
    (Invalid_argument "Pud.of_chain: empty chain") (fun () ->
      ignore (Pud.of_chain ~now:0 ~remaining []))

(* --- EDF ------------------------------------------------------------------- *)

let test_edf_dispatches_earliest () =
  let sched = Edf.make () in
  let a = job ~jid:0 ~ct:500 ~rem:10 () in
  let b = job ~jid:1 ~ct:200 ~rem:10 () in
  let d = sched.Scheduler.decide ~now:0 ~jobs:[| a; b |] ~remaining in
  Alcotest.(check bool) "earliest ct wins" true
    (match (Scheduler.dispatched d) with Some j -> j.Job.jid = 1 | None -> false)

let test_edf_skips_blocked () =
  let sched = Edf.make () in
  let a = job ~jid:0 ~ct:500 ~rem:10 () in
  let b = job ~jid:1 ~ct:200 ~rem:10 () in
  b.Job.state <- Job.Blocked 0;
  let d = sched.Scheduler.decide ~now:0 ~jobs:[| a; b |] ~remaining in
  Alcotest.(check bool) "skips blocked" true
    (match (Scheduler.dispatched d) with Some j -> j.Job.jid = 0 | None -> false)

let test_edf_idle_when_nothing_runnable () =
  let sched = Edf.make () in
  let d = sched.Scheduler.decide ~now:0 ~jobs:[||] ~remaining in
  Alcotest.(check bool) "idle" true ((Scheduler.dispatched d) = None)

(* --- lock-free RUA ------------------------------------------------------------ *)

let test_lf_dispatches_feasible_head () =
  let sched = Rua_lf.make () in
  let a = job ~jid:0 ~ct:500 ~rem:100 () in
  let b = job ~jid:1 ~ct:200 ~rem:100 () in
  let d = sched.Scheduler.decide ~now:0 ~jobs:[| a; b |] ~remaining in
  Alcotest.(check bool) "ECF head dispatched" true
    (match (Scheduler.dispatched d) with Some j -> j.Job.jid = 1 | None -> false);
  Alcotest.(check (list int)) "nothing rejected" [] (Scheduler.rejected_list d)

let test_lf_sheds_lowest_pud_in_overload () =
  (* Two jobs, only one can meet its critical time. The high-utility
     one must be kept, the other rejected. *)
  let high = job ~height:100.0 ~jid:0 ~ct:100 ~rem:80 () in
  let low = job ~height:1.0 ~jid:1 ~ct:100 ~rem:80 () in
  let sched = Rua_lf.make () in
  let d = sched.Scheduler.decide ~now:0 ~jobs:[| high; low |] ~remaining in
  Alcotest.(check (list int)) "low-PUD job rejected" [ 1 ]
    (Scheduler.rejected_list d);
  Alcotest.(check bool) "high-PUD job dispatched" true
    (match (Scheduler.dispatched d) with Some j -> j.Job.jid = 0 | None -> false)

let test_lf_keeps_all_feasible_regardless_of_pud () =
  (* Underload: even the lowest-PUD job stays. *)
  let a = job ~height:100.0 ~jid:0 ~ct:1000 ~rem:50 () in
  let b = job ~height:0.1 ~jid:1 ~ct:2000 ~rem:50 () in
  let sched = Rua_lf.make () in
  let d = sched.Scheduler.decide ~now:0 ~jobs:[| a; b |] ~remaining in
  Alcotest.(check int) "both scheduled" 2 (List.length (Scheduler.schedule_list d));
  Alcotest.(check (list int)) "none rejected" [] (Scheduler.rejected_list d)

let test_lf_equals_edf_when_feasible () =
  (* §3.4: step TUFs + underload + no sharing => RUA's dispatch matches
     EDF's. Exhaustive over many random job sets via qcheck below; here
     a directed instance. *)
  let jobs =
    [
      job ~jid:0 ~ct:900 ~rem:50 ();
      job ~jid:1 ~ct:300 ~rem:50 ();
      job ~jid:2 ~ct:600 ~rem:50 ();
    ]
  in
  let lf = (Rua_lf.make ()).Scheduler.decide ~now:0 ~jobs:(Array.of_list jobs) ~remaining in
  let ed = (Edf.make ()).Scheduler.decide ~now:0 ~jobs:(Array.of_list jobs) ~remaining in
  Alcotest.(check bool) "same dispatch" true
    (match ((Scheduler.dispatched lf), (Scheduler.dispatched ed)) with
    | Some a, Some b -> a.Job.jid = b.Job.jid
    | None, None -> true
    | _ -> false)

let prop_lf_edf_equivalence =
  QCheck.Test.make
    ~name:"lock-free RUA = EDF on feasible step-TUF sets" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 8)
        (pair (int_range 1 100) (int_range 1 20)))
    (fun specs ->
      (* Give every job slack: ct = 10_000 + i separation, rem small. *)
      let jobs =
        List.mapi
          (fun i (ct, rem) ->
            job ~jid:i ~ct:(1_000 + (ct * 50)) ~rem ())
          specs
      in
      let total = List.fold_left (fun acc j -> acc + remaining j) 0 jobs in
      let feasible =
        List.for_all
          (fun j -> total <= Job.absolute_critical_time j)
          jobs
      in
      QCheck.assume feasible;
      let lf = (Rua_lf.make ()).Scheduler.decide ~now:0 ~jobs:(Array.of_list jobs) ~remaining in
      let ed = (Edf.make ()).Scheduler.decide ~now:0 ~jobs:(Array.of_list jobs) ~remaining in
      match ((Scheduler.dispatched lf), (Scheduler.dispatched ed)) with
      | Some a, Some b ->
        Job.absolute_critical_time a = Job.absolute_critical_time b
      | None, None -> true
      | _ -> false)

(* --- lock-based RUA ------------------------------------------------------------- *)

let with_locks () =
  Lock_manager.create ~objects:(Resource.create ~n:4)

let test_lb_respects_dependency () =
  (* B holds an object A wants: even though A has the earlier critical
     time, B must be dispatched (it precedes A in the schedule). *)
  let locks = with_locks () in
  let a = job ~height:100.0 ~jid:0 ~ct:300 ~rem:50 () in
  let b = job ~height:1.0 ~jid:1 ~ct:900 ~rem:50 () in
  ignore (Lock_manager.request locks ~jid:1 ~obj:0);
  (match Lock_manager.request locks ~jid:0 ~obj:0 with
  | Lock_manager.Blocked_on _ -> a.Job.state <- Job.Blocked 0
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  let sched = Rua_lb.make ~locks in
  let d = sched.Scheduler.decide ~now:0 ~jobs:[| a; b |] ~remaining in
  Alcotest.(check bool) "lock holder dispatched" true
    (match (Scheduler.dispatched d) with Some j -> j.Job.jid = 1 | None -> false);
  Alcotest.(check (list int)) "schedule order holder-first" [ 1; 0 ]
    (List.map (fun j -> j.Job.jid) (Scheduler.schedule_list d))

let test_lb_without_locks_matches_lock_free () =
  let locks = with_locks () in
  let jobs =
    [ job ~jid:0 ~ct:400 ~rem:50 (); job ~jid:1 ~ct:200 ~rem:50 () ]
  in
  let lb = (Rua_lb.make ~locks).Scheduler.decide ~now:0 ~jobs:(Array.of_list jobs) ~remaining in
  let lf = (Rua_lf.make ()).Scheduler.decide ~now:0 ~jobs:(Array.of_list jobs) ~remaining in
  Alcotest.(check bool) "same dispatch" true
    (match ((Scheduler.dispatched lb), (Scheduler.dispatched lf)) with
    | Some a, Some b -> a.Job.jid = b.Job.jid
    | _ -> false)

let test_lb_deadlock_aborts_weakest () =
  (* 2-cycle: job 0 (high utility) and job 1 (low utility) deadlock.
     RUA must pick the lower-PUD job as the victim (§3.3). *)
  let locks = with_locks () in
  let a = job ~height:100.0 ~jid:0 ~ct:1000 ~rem:50 () in
  let b = job ~height:1.0 ~jid:1 ~ct:1000 ~rem:50 () in
  ignore (Lock_manager.request locks ~jid:0 ~obj:0);
  ignore (Lock_manager.request locks ~jid:1 ~obj:1);
  (match Lock_manager.request locks ~jid:0 ~obj:1 with
  | Lock_manager.Blocked_on _ -> a.Job.state <- Job.Blocked 1
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  (match Lock_manager.request locks ~jid:1 ~obj:0 with
  | Lock_manager.Blocked_on _ -> b.Job.state <- Job.Blocked 0
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  let sched = Rua_lb.make ~locks in
  let d = sched.Scheduler.decide ~now:0 ~jobs:[| a; b |] ~remaining in
  Alcotest.(check (list int)) "low-utility victim" [ 1 ]
    (List.map (fun j -> j.Job.jid) d.Scheduler.aborts)

let test_lb_aggregate_rejection () =
  (* An infeasible aggregate (job + its dependent) is rejected as a
     unit: the dependent inserted for another accepted job remains. *)
  let locks = with_locks () in
  (* holder: rem 80, ct 100 — feasible alone.
     waiter: rem 80, ct 150 — holder+waiter = 160 > 150: infeasible. *)
  let holder = job ~height:50.0 ~jid:0 ~ct:100 ~rem:80 () in
  let waiter = job ~height:1.0 ~jid:1 ~ct:150 ~rem:80 () in
  ignore (Lock_manager.request locks ~jid:0 ~obj:0);
  (match Lock_manager.request locks ~jid:1 ~obj:0 with
  | Lock_manager.Blocked_on _ -> waiter.Job.state <- Job.Blocked 0
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  let sched = Rua_lb.make ~locks in
  let d = sched.Scheduler.decide ~now:0 ~jobs:[| holder; waiter |] ~remaining in
  Alcotest.(check (list int)) "waiter rejected" [ 1 ] (Scheduler.rejected_list d);
  Alcotest.(check (list int)) "holder kept" [ 0 ]
    (List.map (fun j -> j.Job.jid) (Scheduler.schedule_list d))

let test_lb_ops_exceed_lf_ops () =
  (* The lock-based algorithm does strictly more abstract work than the
     lock-free one on the same scene once chains exist. *)
  let locks = with_locks () in
  let jobs =
    List.init 8 (fun i -> job ~jid:i ~ct:(1_000_000 + (i * 1000)) ~rem:10 ())
  in
  (* Build a 3-deep chain: 0 holds o0; 1 waits o0 holding o1; 2 waits o1. *)
  ignore (Lock_manager.request locks ~jid:0 ~obj:0);
  ignore (Lock_manager.request locks ~jid:1 ~obj:1);
  (match Lock_manager.request locks ~jid:1 ~obj:0 with
  | Lock_manager.Blocked_on _ -> (List.nth jobs 1).Job.state <- Job.Blocked 0
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  (match Lock_manager.request locks ~jid:2 ~obj:1 with
  | Lock_manager.Blocked_on _ -> (List.nth jobs 2).Job.state <- Job.Blocked 1
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  let lb = (Rua_lb.make ~locks).Scheduler.decide ~now:0 ~jobs:(Array.of_list jobs) ~remaining in
  let lf = (Rua_lf.make ()).Scheduler.decide ~now:0 ~jobs:(Array.of_list jobs) ~remaining in
  Alcotest.(check bool) "lock-based costs more ops" true
    (lb.Scheduler.ops > lf.Scheduler.ops)

let test_lb_transitive_chain_in_schedule () =
  (* Transitive dependency: 2 waits on 1 which waits on 0; schedule
     order must be 0, 1, 2 regardless of critical times. *)
  let locks = with_locks () in
  let j0 = job ~jid:0 ~ct:900 ~rem:10 () in
  let j1 = job ~jid:1 ~ct:500 ~rem:10 () in
  let j2 = job ~jid:2 ~ct:100 ~rem:10 () in
  ignore (Lock_manager.request locks ~jid:0 ~obj:0);
  ignore (Lock_manager.request locks ~jid:1 ~obj:1);
  (match Lock_manager.request locks ~jid:1 ~obj:0 with
  | Lock_manager.Blocked_on _ -> j1.Job.state <- Job.Blocked 0
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  (match Lock_manager.request locks ~jid:2 ~obj:1 with
  | Lock_manager.Blocked_on _ -> j2.Job.state <- Job.Blocked 1
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  let sched = Rua_lb.make ~locks in
  let d = sched.Scheduler.decide ~now:0 ~jobs:[| j0; j1; j2 |] ~remaining in
  Alcotest.(check (list int)) "dependency order" [ 0; 1; 2 ]
    (List.map (fun j -> j.Job.jid) (Scheduler.schedule_list d))

let () =
  Test_support.run "rua"
    [
      ( "pud",
        [
          Alcotest.test_case "single job" `Quick test_pud_single_job;
          Alcotest.test_case "chain aggregates" `Quick
            test_pud_chain_aggregates;
          Alcotest.test_case "zero beyond ct" `Quick
            test_pud_zero_beyond_critical_time;
          Alcotest.test_case "depends on now" `Quick test_pud_depends_on_now;
          Alcotest.test_case "infinite on zero work" `Quick
            test_pud_infinite_on_zero_work;
          Alcotest.test_case "empty chain rejected" `Quick
            test_pud_empty_chain_rejected;
        ] );
      ( "edf",
        [
          Alcotest.test_case "dispatches earliest" `Quick
            test_edf_dispatches_earliest;
          Alcotest.test_case "skips blocked" `Quick test_edf_skips_blocked;
          Alcotest.test_case "idles when empty" `Quick
            test_edf_idle_when_nothing_runnable;
        ] );
      ( "lock_free_rua",
        [
          Alcotest.test_case "dispatches feasible head" `Quick
            test_lf_dispatches_feasible_head;
          Alcotest.test_case "sheds lowest PUD in overload" `Quick
            test_lf_sheds_lowest_pud_in_overload;
          Alcotest.test_case "keeps all feasible" `Quick
            test_lf_keeps_all_feasible_regardless_of_pud;
          Alcotest.test_case "equals EDF when feasible" `Quick
            test_lf_equals_edf_when_feasible;
          Test_support.to_alcotest prop_lf_edf_equivalence;
        ] );
      ( "lock_based_rua",
        [
          Alcotest.test_case "respects dependency" `Quick
            test_lb_respects_dependency;
          Alcotest.test_case "matches lock-free without locks" `Quick
            test_lb_without_locks_matches_lock_free;
          Alcotest.test_case "deadlock aborts weakest" `Quick
            test_lb_deadlock_aborts_weakest;
          Alcotest.test_case "aggregate rejection" `Quick
            test_lb_aggregate_rejection;
          Alcotest.test_case "ops exceed lock-free" `Quick
            test_lb_ops_exceed_lf_ops;
          Alcotest.test_case "transitive chain in schedule" `Quick
            test_lb_transitive_chain_in_schedule;
        ] );
    ]
