(* End-to-end simulator tests: paper behaviours (Figures 6/7 dynamics,
   §3.5 abort model, Lemma 1, Theorem 2) and conservation invariants. *)

module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Job = Rtlf_model.Job
module Sync = Rtlf_sim.Sync
module Simulator = Rtlf_sim.Simulator
module Trace = Rtlf_sim.Trace
module Workload = Rtlf_workload.Workload

let us n = n * 1_000
let ms n = n * 1_000_000

(* A simple periodic task: period = window = [period], critical time
   [c], compute [exec]. *)
let periodic_task ~id ?(height = 10.0) ~period ~c ~exec ?(accesses = [])
    ?(abort_cost = 0) () =
  Task.make ~id ~tuf:(Tuf.step ~height ~c) ~arrival:(Uam.periodic ~period)
    ~exec ~accesses ~abort_cost ()

let run ?(sync = Sync.Ideal) ?(sched = Simulator.Rua) ?(horizon = ms 100)
    ?(seed = 7) ?(sched_base = 0) ?(sched_per_op = 0) ?n_objects
    ?(retry_on_any_preemption = false) ?(trace = false) tasks =
  Simulator.run
    (Simulator.config ~tasks ~sync ~sched ?n_objects ~horizon ~seed
       ~sched_base ~sched_per_op ~retry_on_any_preemption ~trace ())

(* --- basic conservation --------------------------------------------- *)

let test_conservation () =
  let tasks =
    [
      periodic_task ~id:0 ~period:(us 1000) ~c:(us 800) ~exec:(us 100) ();
      periodic_task ~id:1 ~period:(us 700) ~c:(us 500) ~exec:(us 80) ();
      periodic_task ~id:2 ~period:(us 1300) ~c:(us 900) ~exec:(us 120) ();
    ]
  in
  let res = run tasks in
  Alcotest.(check bool) "some jobs released" true (res.Simulator.released > 0);
  Alcotest.(check int) "released = completed + aborted"
    res.Simulator.released
    (res.Simulator.completed + res.Simulator.aborted)

let test_underload_meets_all () =
  (* Underloaded periodic step-TUF set without sharing: RUA must meet
     every critical time (it defaults to EDF, which is optimal). *)
  let tasks =
    [
      periodic_task ~id:0 ~period:(us 1000) ~c:(us 900) ~exec:(us 150) ();
      periodic_task ~id:1 ~period:(us 1500) ~c:(us 1200) ~exec:(us 200) ();
      periodic_task ~id:2 ~period:(us 2000) ~c:(us 1800) ~exec:(us 250) ();
    ]
  in
  let res = run tasks in
  Alcotest.(check int) "no aborts" 0 res.Simulator.aborted;
  Alcotest.(check (float 1e-9)) "cmr = 1" 1.0 res.Simulator.cmr;
  Alcotest.(check (float 1e-9)) "aur = 1" 1.0 res.Simulator.aur

let test_overload_sheds () =
  (* Load ~2.0: roughly half the work cannot complete; RUA must shed
     (abort) rather than let everything miss. *)
  let tasks =
    [
      periodic_task ~id:0 ~height:100.0 ~period:(us 1000) ~c:(us 1000)
        ~exec:(us 900) ();
      periodic_task ~id:1 ~height:10.0 ~period:(us 1000) ~c:(us 1000)
        ~exec:(us 900) ();
    ]
  in
  let res = run tasks in
  Alcotest.(check bool) "aborts happen" true (res.Simulator.aborted > 0);
  Alcotest.(check bool) "some jobs still complete" true
    (res.Simulator.completed > 0);
  (* The high-utility task should dominate completions. *)
  let t0 = res.Simulator.per_task.(0) and t1 = res.Simulator.per_task.(1) in
  Alcotest.(check bool) "high-utility task favoured" true
    (t0.Simulator.completed > t1.Simulator.completed)

let test_edf_equals_rua_underload () =
  (* §3.4: during step-TUF underloads with no sharing, RUA's output
     coincides with EDF — same completions, same total utility. *)
  let tasks =
    List.init 5 (fun i ->
        periodic_task ~id:i
          ~period:(us (900 + (i * 350)))
          ~c:(us (700 + (i * 300)))
          ~exec:(us (60 + (i * 25)))
          ())
  in
  let rua = run ~sched:Simulator.Rua tasks in
  let edf = run ~sched:Simulator.Edf tasks in
  Alcotest.(check int) "same releases" rua.Simulator.released
    edf.Simulator.released;
  Alcotest.(check int) "same completions" rua.Simulator.completed
    edf.Simulator.completed;
  Alcotest.(check (float 1e-6)) "same utility" rua.Simulator.accrued
    edf.Simulator.accrued

(* --- abort model (§3.5) --------------------------------------------- *)

let test_abort_at_critical_time () =
  (* One task whose jobs can never finish: exec > c. Every job must be
     aborted exactly at its critical time. *)
  let tasks =
    [ periodic_task ~id:0 ~period:(us 1000) ~c:(us 300) ~exec:(us 500) () ]
  in
  let res = run ~trace:true tasks in
  Alcotest.(check int) "nothing completes" 0 res.Simulator.completed;
  Alcotest.(check bool) "all resolved jobs aborted" true
    (res.Simulator.aborted = res.Simulator.released);
  let aborts =
    Trace.count res.Simulator.trace (function
      | Trace.Abort _ -> true
      | _ -> false)
  in
  Alcotest.(check int) "trace records each abort" res.Simulator.aborted
    aborts

let test_abort_releases_locks () =
  (* Lock-based: a job aborted inside its critical section must release
     the lock so its peers can proceed. Task 0 holds the object for
     longer than its critical time allows; task 1 needs the same
     object and must still make progress. *)
  let obj = 0 in
  let tasks =
    [
      periodic_task ~id:0 ~period:(us 2000) ~c:(us 200) ~exec:(us 50)
        ~accesses:[ (obj, us 400) ] ();
      periodic_task ~id:1 ~period:(us 2000) ~c:(us 1800) ~exec:(us 50)
        ~accesses:[ (obj, us 20) ] ();
    ]
  in
  let sync = Sync.Lock_based { overhead = 100 } in
  let res = run ~sync ~n_objects:1 ~trace:true tasks in
  (match Trace.check ~sync res.Simulator.trace with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let t1 = res.Simulator.per_task.(1) in
  Alcotest.(check bool) "task 1 completes jobs" true
    (t1.Simulator.completed > 0)

(* --- Lemma 1: preemptions bounded by scheduling events --------------- *)

let test_lemma1_preemptions_le_events () =
  let spec =
    {
      Workload.default with
      Workload.target_al = 0.9;
      n_tasks = 6;
      mean_exec = us 150;
      seed = 21;
    }
  in
  let tasks = Workload.make spec in
  let res = run ~sync:(Sync.Lock_free { overhead = 50 }) tasks in
  Alcotest.(check bool) "preemptions <= scheduler invocations" true
    (res.Simulator.preemptions <= res.Simulator.sched_invocations)

(* --- Theorem 2: retries within the analytic bound -------------------- *)

let check_retry_bound ~retry_on_any_preemption () =
  let spec =
    {
      Workload.default with
      Workload.target_al = 1.1;
      n_tasks = 8;
      mean_exec = us 100;
      accesses_per_job = 6;
      burst = 3;
      seed = 5;
    }
  in
  let tasks = Workload.make spec in
  let res =
    run
      ~sync:(Sync.Lock_free { overhead = 100 })
      ~retry_on_any_preemption ~horizon:(ms 200) tasks
  in
  Alcotest.(check bool) "jobs were released" true
    (res.Simulator.released > 0);
  Array.iter
    (fun (tr : Simulator.task_result) ->
      let bound =
        Rtlf_core.Retry_bound.bound ~tasks ~i:tr.Simulator.task_id
      in
      if tr.Simulator.max_retries > bound then
        Alcotest.failf "task %d: max retries %d exceeds Theorem 2 bound %d"
          tr.Simulator.task_id tr.Simulator.max_retries bound)
    res.Simulator.per_task

let test_retry_bound_realistic () =
  check_retry_bound ~retry_on_any_preemption:false ()

let test_retry_bound_adversarial () =
  check_retry_bound ~retry_on_any_preemption:true ()

let test_readers_never_conflict () =
  (* Multi-reader semantics: jobs that only READ a shared object never
     invalidate each other's lock-free attempts, so a pure-reader
     workload has zero retries no matter the contention. *)
  let spec =
    {
      Workload.default with
      Workload.target_al = 1.2;
      n_tasks = 8;
      n_objects = 1;
      accesses_per_job = 8;
      access_work = us 2;
      mean_exec = us 50;
      readers = 8; (* everyone reads *)
      seed = 3;
    }
  in
  let tasks = Workload.make spec in
  let res =
    run ~sync:(Sync.Lock_free { overhead = 100 }) ~horizon:(ms 200) tasks
  in
  Alcotest.(check int) "no retries among readers" 0
    res.Simulator.retries_total

let test_retries_happen_under_contention () =
  (* Sanity: the retry machinery actually fires under heavy sharing. *)
  let spec =
    {
      Workload.default with
      Workload.target_al = 1.2;
      n_tasks = 8;
      n_objects = 1;
      accesses_per_job = 8;
      access_work = us 2;
      mean_exec = us 50;
      seed = 3;
    }
  in
  let tasks = Workload.make spec in
  let res =
    run ~sync:(Sync.Lock_free { overhead = 100 }) ~horizon:(ms 200) tasks
  in
  Alcotest.(check bool) "some retries observed" true
    (res.Simulator.retries_total > 0)

(* --- mutual preemption (Figure 6) ------------------------------------ *)

let test_mutual_preemption () =
  (* Two jobs whose relative PUD flips as their TUFs decay can preempt
     each other repeatedly under a UA scheduler. We check the weaker,
     robust property: with decaying TUFs and interleaved arrivals, at
     least one job is preempted more than once. *)
  let t0 =
    Task.make ~id:0
      ~tuf:(Tuf.linear ~u0:100.0 ~c:(us 5000))
      ~arrival:(Uam.periodic ~period:(us 5000))
      ~exec:(us 1500) ()
  in
  let t1 =
    Task.make ~id:1
      ~tuf:(Tuf.parabolic ~u0:90.0 ~c:(us 4000))
      ~arrival:(Uam.periodic ~period:(us 4100))
      ~exec:(us 1200) ()
  in
  let res = run ~horizon:(ms 60) ~trace:true [ t0; t1 ] in
  Alcotest.(check bool) "preemptions occur" true
    (res.Simulator.preemptions > 0)

(* --- determinism ------------------------------------------------------ *)

let test_determinism () =
  let spec = { Workload.default with Workload.seed = 11 } in
  let tasks = Workload.make spec in
  let r1 = run ~sync:(Sync.Lock_free { overhead = 80 }) tasks in
  let r2 = run ~sync:(Sync.Lock_free { overhead = 80 }) tasks in
  Alcotest.(check int) "released" r1.Simulator.released
    r2.Simulator.released;
  Alcotest.(check (float 0.0)) "aur" r1.Simulator.aur r2.Simulator.aur;
  Alcotest.(check int) "retries" r1.Simulator.retries_total
    r2.Simulator.retries_total;
  Alcotest.(check int) "final time" r1.Simulator.final_time
    r2.Simulator.final_time

(* --- lock-based blocking actually occurs ------------------------------ *)

let test_blocking_under_lock_based () =
  let spec =
    {
      Workload.default with
      Workload.n_objects = 1;
      accesses_per_job = 6;
      access_work = us 5;
      target_al = 0.9;
      mean_exec = us 100;
      seed = 9;
    }
  in
  let tasks = Workload.make spec in
  let res =
    run
      ~sync:(Sync.Lock_based { overhead = 200 })
      ~n_objects:1 ~horizon:(ms 200) tasks
  in
  Alcotest.(check bool) "blocking observed" true
    (res.Simulator.blocked_events > 0);
  Alcotest.(check bool) "no lock-free retries under locks" true
    (res.Simulator.retries_total = 0)

(* --- scheduler overhead accounting ------------------------------------ *)

let test_overhead_charged () =
  let tasks =
    [ periodic_task ~id:0 ~period:(us 1000) ~c:(us 900) ~exec:(us 100) () ]
  in
  let res = run ~sched_base:1000 ~sched_per_op:10 tasks in
  Alcotest.(check bool) "overhead accumulates" true
    (res.Simulator.sched_overhead
    >= res.Simulator.sched_invocations * 1000)

let test_overhead_causes_misses_for_short_jobs () =
  (* With large scheduling overhead and very short jobs, even a light
     load misses critical times — the Figure 9 mechanism. *)
  let mk ~sched_base =
    let spec =
      {
        Workload.default with
        Workload.mean_exec = us 10;
        target_al = 0.5;
        accesses_per_job = 0;
        seed = 13;
      }
    in
    let tasks = Workload.make spec in
    run ~sched_base ~sched_per_op:20 ~horizon:(ms 50) tasks
  in
  let light = mk ~sched_base:0 in
  let heavy = mk ~sched_base:20_000 in
  Alcotest.(check bool) "heavy overhead lowers cmr" true
    (heavy.Simulator.cmr < light.Simulator.cmr)

(* --- Theorem-2 budget auditor & retry tails -------------------------- *)

let contention_spec =
  {
    Workload.default with
    Workload.target_al = 1.2;
    n_tasks = 8;
    n_objects = 1;
    accesses_per_job = 8;
    access_work = us 2;
    mean_exec = us 50;
    seed = 3;
  }

let test_audit_armed_lock_free_rua () =
  let tasks = Workload.make contention_spec in
  let res =
    run ~sync:(Sync.Lock_free { overhead = 100 }) ~horizon:(ms 200) tasks
  in
  let a = res.Simulator.audit in
  Alcotest.(check bool) "audited" true a.Rtlf_sim.Audit.audited;
  Alcotest.(check int) "every resolved job checked"
    res.Simulator.released a.Rtlf_sim.Audit.checked;
  Alcotest.(check bool) "no violations" true (Rtlf_sim.Audit.ok a);
  Alcotest.(check int) "one bound per task" (List.length tasks)
    (Array.length a.Rtlf_sim.Audit.bounds);
  List.iter
    (fun t ->
      Alcotest.(check int)
        (Printf.sprintf "bound of task %d" t.Task.id)
        (Rtlf_core.Retry_bound.bound ~tasks ~i:t.Task.id)
        a.Rtlf_sim.Audit.bounds.(t.Task.id))
    tasks

let test_audit_disarmed_outside_theorem () =
  let tasks = Workload.make contention_spec in
  (* Outside Theorem 2's hypotheses — lock-based sharing, and lock-free
     under a non-UA scheduler — the auditor must not arm. *)
  let lock_based =
    run ~sync:(Sync.Lock_based { overhead = 100 }) ~horizon:(ms 100) tasks
  in
  Alcotest.(check bool) "lock-based not audited" false
    lock_based.Simulator.audit.Rtlf_sim.Audit.audited;
  Alcotest.(check int) "lock-based checked 0" 0
    lock_based.Simulator.audit.Rtlf_sim.Audit.checked;
  let edf =
    run
      ~sync:(Sync.Lock_free { overhead = 100 })
      ~sched:Simulator.Edf ~horizon:(ms 100) tasks
  in
  Alcotest.(check bool) "EDF not audited" false
    edf.Simulator.audit.Rtlf_sim.Audit.audited;
  Alcotest.(check bool) "vacuously ok" true
    (Rtlf_sim.Audit.ok edf.Simulator.audit)

let test_audit_uniprocessor_only () =
  (* Theorem 2 is a uniprocessor result: lock-free RUA is audited at
     m = 1 and not at m = 2, where writers on the other core can
     invalidate attempts the bound does not count. *)
  let tasks = Workload.make contention_spec in
  let audited cores =
    let res =
      Simulator.run
        (Simulator.config ~tasks
           ~sync:(Sync.Lock_free { overhead = 100 })
           ~sched:Simulator.Rua ~horizon:(ms 100) ~seed:7 ~cores ())
    in
    res.Simulator.audit
  in
  let one = audited 1 in
  Alcotest.(check bool) "m = 1 audited" true one.Rtlf_sim.Audit.audited;
  Alcotest.(check bool) "m = 1 checked jobs" true
    (one.Rtlf_sim.Audit.checked > 0);
  let two = audited 2 in
  Alcotest.(check bool) "m = 2 not audited" false two.Rtlf_sim.Audit.audited;
  Alcotest.(check int) "m = 2 checked 0" 0 two.Rtlf_sim.Audit.checked;
  Alcotest.(check string) "m = 2 report" "auditor: not applicable"
    (Format.asprintf "%a" Rtlf_sim.Audit.pp_report two)

let test_audit_flags_excess () =
  (* Drive the auditor directly with a fabricated over-budget job: the
     simulator should never produce one, so the detection path needs
     its own exercise. *)
  let tasks =
    [
      periodic_task ~id:0 ~period:(us 1000) ~c:(us 800) ~exec:(us 100)
        ~accesses:[ (0, us 10) ] ();
      periodic_task ~id:1 ~period:(us 900) ~c:(us 700) ~exec:(us 90)
        ~accesses:[ (0, us 10) ] ();
    ]
  in
  let a = Rtlf_sim.Audit.create ~tasks ~enabled:true in
  let bound = Rtlf_core.Retry_bound.bound ~tasks ~i:0 in
  Rtlf_sim.Audit.observe a ~task_id:0 ~jid:1 ~retries:bound ~time:10;
  Rtlf_sim.Audit.observe a ~task_id:0 ~jid:2 ~retries:(bound + 1) ~time:20;
  let r = Rtlf_sim.Audit.report a in
  Alcotest.(check int) "checked" 2 r.Rtlf_sim.Audit.checked;
  Alcotest.(check bool) "violation detected" false (Rtlf_sim.Audit.ok r);
  (match r.Rtlf_sim.Audit.violations with
  | [ v ] ->
    Alcotest.(check int) "offending jid" 2 v.Rtlf_sim.Audit.jid;
    Alcotest.(check int) "retries" (bound + 1) v.Rtlf_sim.Audit.retries;
    Alcotest.(check int) "bound" bound v.Rtlf_sim.Audit.bound
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  (* Disabled auditor ignores everything. *)
  let d = Rtlf_sim.Audit.create ~tasks ~enabled:false in
  Rtlf_sim.Audit.observe d ~task_id:0 ~jid:9 ~retries:1_000_000 ~time:5;
  let rd = Rtlf_sim.Audit.report d in
  Alcotest.(check int) "disabled checks nothing" 0 rd.Rtlf_sim.Audit.checked;
  Alcotest.(check bool) "disabled vacuously ok" true (Rtlf_sim.Audit.ok rd)

let test_retry_tails_per_task () =
  let module Stats = Rtlf_engine.Stats in
  let tasks = Workload.make contention_spec in
  let res =
    run ~sync:(Sync.Lock_free { overhead = 100 }) ~horizon:(ms 200) tasks
  in
  Array.iter
    (fun (tr : Simulator.task_result) ->
      let t = tr.Simulator.retry_tails in
      Alcotest.(check int)
        (Printf.sprintf "task %d: tails fed every resolved job"
           tr.Simulator.task_id)
        tr.Simulator.released t.Stats.P2.n;
      if t.Stats.P2.n > 0 then begin
        (* Retry counts are non-negative and the tail estimate cannot
           exceed the observed per-job maximum. *)
        Alcotest.(check bool) "p50 >= 0" true (t.Stats.P2.p50 >= 0.0);
        Alcotest.(check bool) "p999 <= max" true
          (t.Stats.P2.p999
          <= float_of_int tr.Simulator.max_retries +. 1e-9)
      end)
    res.Simulator.per_task

(* --- allocation budget ------------------------------------------------ *)

(* Minor-heap words per scheduler invocation of one RUA run, setup and
   summary included. The count is exact for a given build, so a bound
   pins the main loop's per-invocation allocation: jobs, queue cells,
   the live view and the results, with no per-decision list, no
   per-pass dispatcher plan, no
   boxed statistics, no option in a job's per-access bookkeeping and no
   pair from an expiry pop. *)
let words_per_invocation ~tasks ~sync ~mode =
  let module Common = Rtlf_experiments.Common in
  let cfg =
    Simulator.config ~tasks ~sync ~sched:Simulator.Rua
      ~horizon:(Common.horizon_for mode tasks)
      ~seed:1 ~sched_base:Common.sched_base ~sched_per_op:Common.sched_per_op
      ()
  in
  let before = Gc.minor_words () in
  let res = Simulator.run cfg in
  let words = Gc.minor_words () -. before in
  words /. float_of_int res.Simulator.sched_invocations

let check_budget ~budget per_inv =
  if per_inv > budget then
    Alcotest.failf "%.2f minor words per invocation (budget %.1f)" per_inv
      budget

(* The paper's base regime (10 tasks, AL 0.5, lock-free RUA, full
   horizon) reads 36.3 words in the dev build (33.6 release), 37.3 with
   the sojourn histogram built (a sorted copy of the samples) in every
   run's summary. A float pushed per scheduler charge and per blocking
   span, in place of [Stats.Counts], reads 39.3. Decisions returned as fresh lists and
   records, with a boxed PUD per job on every cache check, read 50.8.
   An [int option] access-entry time instead of the [-1] sentinel costs
   2.7 words more; the option snapshots, the expiry pop's pair and the
   boxing heap sort together cost 10.9 more. *)
let words_per_invocation_budget = 37.5

let test_allocation_budget () =
  let module Common = Rtlf_experiments.Common in
  let tasks =
    Workload.make { Workload.default with Workload.target_al = 0.5 }
  in
  check_budget ~budget:words_per_invocation_budget
    (words_per_invocation ~tasks ~sync:Common.lock_free ~mode:Common.Full)

(* [smp]'s one-core workload (10 accesses a job) under ticket spin locks
   at [Fast]: every access is entered and every release is a scheduling
   event. It reads 22.4 words in the dev build (21.0 release), 22.6
   with the sojourn histogram built in every run's summary, 24.5 with a
   float pushed per scheduler charge and blocking span; with
   list-built decisions it read 61.3, and with a lock table on hash
   tables and a [holding] list kept beside it in the job, 79.9. *)
let spin_words_per_invocation_budget = 23.9

let test_spin_allocation_budget () =
  let module Common = Rtlf_experiments.Common in
  let tasks = Workload.make (Rtlf_experiments.Smp.spec ~cores:1) in
  check_budget ~budget:spin_words_per_invocation_budget
    (words_per_invocation ~tasks ~sync:Common.spin_ticket ~mode:Common.Fast)

(* The base regime under lock-based RUA: every lock request and release
   is a scheduling event, so the lock table's cost shows per
   invocation. It reads 12.2 words in the dev build (11.4 release),
   12.4 with the sojourn histogram built in every run's summary, 14.4
   with a float pushed per scheduler charge and blocking span.
   List-built decisions read 27.6; a lock table on hash tables, with a
   [holding] list and a jid-keyed blocking-span table kept beside it in
   the simulator, read 37.0. *)
let lock_words_per_invocation_budget = 13.7

let test_lock_allocation_budget () =
  let module Common = Rtlf_experiments.Common in
  let tasks =
    Workload.make { Workload.default with Workload.target_al = 0.5 }
  in
  check_budget ~budget:lock_words_per_invocation_budget
    (words_per_invocation ~tasks ~sync:Common.lock_based ~mode:Common.Full)

(* The incremental deciders key their cross-invocation caches on the
   physical identity of the jobs array [Live_view.view] hands them.
   That contract has two sides: the view returns the same array while
   membership is unchanged, and a decide must never mutate that cached
   array in place (neither the slots nor which job each slot holds). *)
let test_live_view_decide_aliasing () =
  let module Live_view = Rtlf_sim.Live_view in
  let lv = Live_view.create () in
  let mk jid =
    let task =
      Task.make ~id:jid
        ~tuf:(Tuf.step ~height:(5.0 +. float_of_int jid) ~c:(1_000 + jid))
        ~arrival:(Uam.periodic ~period:4_000)
        ~exec:(50 + (7 * jid))
        ()
    in
    Job.create ~task ~jid ~arrival:0
  in
  for jid = 0 to 31 do
    Live_view.add lv (mk jid)
  done;
  let view = Live_view.view lv in
  let before = Array.copy view in
  let remaining = Job.remaining_nominal in
  List.iter
    (fun s ->
      for i = 0 to 5 do
        ignore (s.Rtlf_core.Scheduler.decide ~now:(i * 37) ~jobs:view ~remaining)
      done)
    [ Rtlf_core.Edf.make (); Rtlf_core.Rua_lock_free.make () ];
  Alcotest.(check bool) "view is the same physical array" true
    (Live_view.view lv == view);
  Array.iteri
    (fun i j ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d holds the same job" i)
        true (before.(i) == j);
      Alcotest.(check int) (Printf.sprintf "slot %d jid" i) i j.Job.jid)
    view;
  (* Membership change: the next view is a fresh snapshot, so cached
     decisions keyed on the old array can never be served against a
     different live set. *)
  Live_view.remove lv ~jid:7;
  Alcotest.(check bool) "membership change breaks identity" true
    (Live_view.view lv != view)

let () =
  Test_support.run "sim"
    [
      ( "conservation",
        [
          Alcotest.test_case "released = completed + aborted" `Quick
            test_conservation;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "live-view aliasing across decides" `Quick
            test_live_view_decide_aliasing;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "underload meets all" `Quick
            test_underload_meets_all;
          Alcotest.test_case "overload sheds low utility" `Quick
            test_overload_sheds;
          Alcotest.test_case "RUA = EDF in step underload" `Quick
            test_edf_equals_rua_underload;
          Alcotest.test_case "mutual preemption occurs" `Quick
            test_mutual_preemption;
        ] );
      ( "aborts",
        [
          Alcotest.test_case "abort at critical time" `Quick
            test_abort_at_critical_time;
          Alcotest.test_case "abort releases locks" `Quick
            test_abort_releases_locks;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "Lemma 1: preemptions <= events" `Quick
            test_lemma1_preemptions_le_events;
          Alcotest.test_case "Theorem 2 bound (realistic)" `Quick
            test_retry_bound_realistic;
          Alcotest.test_case "Theorem 2 bound (adversarial)" `Quick
            test_retry_bound_adversarial;
          Alcotest.test_case "retries occur under contention" `Quick
            test_retries_happen_under_contention;
          Alcotest.test_case "readers never conflict" `Quick
            test_readers_never_conflict;
        ] );
      ( "audit",
        [
          Alcotest.test_case "armed for lock-free RUA" `Quick
            test_audit_armed_lock_free_rua;
          Alcotest.test_case "disarmed outside Theorem 2" `Quick
            test_audit_disarmed_outside_theorem;
          Alcotest.test_case "uniprocessor only" `Quick
            test_audit_uniprocessor_only;
          Alcotest.test_case "flags over-budget jobs" `Quick
            test_audit_flags_excess;
          Alcotest.test_case "per-task retry tails" `Quick
            test_retry_tails_per_task;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "words per invocation within budget" `Quick
            test_allocation_budget;
          Alcotest.test_case "spin words per invocation within budget" `Quick
            test_spin_allocation_budget;
          Alcotest.test_case "lock-based words per invocation within budget"
            `Quick test_lock_allocation_budget;
        ] );
      ( "sync",
        [
          Alcotest.test_case "blocking under lock-based" `Quick
            test_blocking_under_lock_based;
          Alcotest.test_case "overhead charged" `Quick test_overhead_charged;
          Alcotest.test_case "overhead causes short-job misses" `Quick
            test_overhead_causes_misses_for_short_jobs;
        ] );
    ]
