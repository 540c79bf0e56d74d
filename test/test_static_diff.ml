(* Differential oracle for static mode (the release-pattern table).

   [Static_mode] over a release-pattern plan must be observationally
   identical to the dynamic decider it wraps — dispatch, aborts,
   rejected, schedule order AND the charged [ops] count — whichever
   path served the decide (pattern-template replay or delegation).
   Three layers:

   - scene: fresh static instances vs the list-based [Reference] across
     seeded scenes (>= 100), including synchronized-release scenes that
     exercise the ahead-of-time and learned pattern templates;
   - sequence: a persistent static instance against an evolving jobs
     array through seeded mutation sequences that respect the
     simulator's dispatch contract (remaining cost only moves for jobs
     that were Running or whose state changed) — unknown tasks,
     deadline misses, aborts, lock-chain flips, array replacement on
     release — compared to [Reference] at every step;
   - simulator: [Simulator.run] in Static vs Dynamic mode, field for
     field and trace entry for trace entry, across sync x scheduler x
     cores x dispatch.

   All randomness derives from RTLF_SEED via [Test_support]. *)

module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Task = Rtlf_model.Task
module Job = Rtlf_model.Job
module Scheduler = Rtlf_core.Scheduler
module Reference = Rtlf_core.Reference
module Static_mode = Rtlf_core.Static_mode
module Sync = Rtlf_sim.Sync
module Simulator = Rtlf_sim.Simulator
module Cores = Rtlf_sim.Cores
module Trace = Rtlf_sim.Trace
module Workload = Rtlf_workload.Workload

let remaining = Job.remaining_nominal

let mk_tuf rs ~ct =
  let u0 = 0.1 +. Random.State.float rs 100.0 in
  match Random.State.int rs 4 with
  | 0 -> Tuf.step ~height:u0 ~c:ct
  | 1 -> Tuf.linear ~u0 ~c:ct
  | 2 -> Tuf.parabolic ~u0 ~c:ct
  | _ ->
    let mid = 1 + Random.State.int rs (max 1 (ct - 1)) in
    Tuf.piecewise
      ~points:[| (0, u0); (min mid (ct - 1), u0 /. 2.0) |]
      ~c:ct

let mk_task rs ~id =
  let ct = 200 + Random.State.int rs 1800 in
  let exec = 1 + Random.State.int rs 150 in
  Task.make ~id ~tuf:(mk_tuf rs ~ct)
    ~arrival:(Uam.periodic ~period:(2 * ct))
    ~exec ()

(* --- scene layer ------------------------------------------------------- *)

let jid_opt = function None -> None | Some j -> Some j.Job.jid
let jids = List.map (fun j -> j.Job.jid)

let check_same ~msg (expected : Scheduler.decision)
    (got : Scheduler.decision) =
  Alcotest.(check (option int))
    (msg ^ ": dispatch")
    (jid_opt expected.Scheduler.dispatch)
    (jid_opt got.Scheduler.dispatch);
  Alcotest.(check (list int))
    (msg ^ ": aborts")
    (jids expected.Scheduler.aborts)
    (jids got.Scheduler.aborts);
  Alcotest.(check (list int))
    (msg ^ ": rejected") expected.Scheduler.rejected got.Scheduler.rejected;
  Alcotest.(check (list int))
    (msg ^ ": schedule")
    (jids expected.Scheduler.schedule)
    (jids got.Scheduler.schedule);
  Alcotest.(check int) (msg ^ ": ops") expected.Scheduler.ops
    got.Scheduler.ops

let make_static ~plan kind =
  match kind with
  | `Rua ->
    Static_mode.create ~plan
      ~fallback:(Rtlf_core.Rua_lock_free.make ())
      ~algo:Static_mode.Rua_lf
  | `Edf ->
    Static_mode.create ~plan
      ~fallback:(Rtlf_core.Edf.make ())
      ~algo:Static_mode.Edf

let reference_of = function
  | `Rua -> Reference.rua_lock_free ()
  | `Edf -> Reference.edf ()

(* Mixed-state scene: fresh jobs of the scene's tasks with randomised
   arrivals, some pre-advanced (Running with progress), some Blocked,
   some already dead. *)
let scene rs ~tasks ~n =
  Array.init n (fun jid ->
      let task = List.nth tasks jid in
      let arrival = Random.State.int rs 400 in
      let j = Job.create ~task ~jid ~arrival in
      (match Random.State.int rs 6 with
      | 0 ->
        j.Job.state <- Job.Running;
        j.Job.seg_progress <- Random.State.int rs 40
      | 1 -> j.Job.state <- Job.Blocked (Random.State.int rs 4)
      | 2 when Random.State.bool rs -> j.Job.state <- Job.Completed
      | _ -> ());
      j)

let run_scenes kind () =
  let rs = Test_support.rand_state () in
  let count = ref 0 in
  let pattern_hits = ref 0 in
  List.iter
    (fun n ->
      for rep = 1 to 14 do
        incr count;
        let tasks = List.init n (fun id -> mk_task rs ~id) in
        let plan = Static_mode.plan ~tasks ~remaining in
        let static = make_static ~plan kind in
        let sched = Static_mode.scheduler static in
        let jobs = scene rs ~tasks ~n in
        let now = 500 + Random.State.int rs 500 in
        let reference = reference_of kind in
        let expected = reference.Scheduler.decide ~now ~jobs ~remaining in
        let msg = Printf.sprintf "scene n=%d rep=%d" n rep in
        check_same ~msg expected (sched.Scheduler.decide ~now ~jobs ~remaining);
        (* Same scene again on the same instance, its wrapped
           decider's cache now warm: must still match. *)
        check_same ~msg:(msg ^ " (rerun)") expected
          (sched.Scheduler.decide ~now ~jobs ~remaining);
        (* Synchronized release: every task releases one fresh job at a
           common arrival, decided on two physically distinct arrays.
           Under RUA the second comes from the pattern table
           (ahead-of-time at delta=0, learned from the first
           otherwise); both must match. *)
        incr count;
        let base = Random.State.int rs 10_000 in
        let delta = if Random.State.bool rs then 0 else Random.State.int rs 60 in
        let burst () =
          Array.of_list
            (List.mapi (fun jid t -> Job.create ~task:t ~jid ~arrival:base) tasks)
        in
        let b1 = burst () and b2 = burst () in
        let bnow = base + delta in
        let reference = reference_of kind in
        let expected = reference.Scheduler.decide ~now:bnow ~jobs:b1 ~remaining in
        let msg = Printf.sprintf "burst n=%d rep=%d delta=%d" n rep delta in
        check_same ~msg expected
          (sched.Scheduler.decide ~now:bnow ~jobs:b1 ~remaining);
        check_same ~msg:(msg ^ " (replay)") expected
          (sched.Scheduler.decide ~now:bnow ~jobs:b2 ~remaining);
        (* The same release after some jobs ran and were preempted:
           same key, but no longer fresh, so no template may serve it. *)
        let b3 = burst () in
        Array.iter
          (fun j ->
            if Random.State.bool rs && remaining j > 1 then
              j.Job.seg_progress <- 1 + Random.State.int rs (remaining j - 1))
          b3;
        check_same ~msg:(msg ^ " (progressed)")
          ((reference_of kind).Scheduler.decide ~now:bnow ~jobs:b3 ~remaining)
          (sched.Scheduler.decide ~now:bnow ~jobs:b3 ~remaining);
        pattern_hits :=
          !pattern_hits + (Static_mode.stats static).Static_mode.pattern_hits
      done)
    [ 1; 2; 8; 48 ];
  Alcotest.(check bool) "at least 100 scenes" true (!count >= 100);
  (* EDF has no pattern table; for RUA the burst replays above must
     actually have exercised it. *)
  if kind = `Rua then
    Alcotest.(check bool) "pattern path exercised" true (!pattern_hits > 0)

(* --- sequence layer ----------------------------------------------------- *)

(* Mutations follow the simulator's dispatch discipline: only Running
   jobs burn remaining cost, and every other change is an observable
   state flip. A new release replaces the jobs array (identity change),
   sometimes with a job of a task the plan has never seen. *)
let run_sequences kind () =
  let rs = Test_support.rand_state () in
  let total = ref Static_mode.zero_stats in
  List.iter
    (fun n ->
      for rep = 1 to 8 do
        let all_tasks = List.init (n + 8) (fun id -> mk_task rs ~id) in
        let tasks = List.filteri (fun i _ -> i < n) all_tasks in
        (* Plan over a strict subset of the tasks the sequence will
           release: the rest are unknown to the plan. *)
        let planned = List.filteri (fun i _ -> i < max 1 (n / 2)) tasks in
        let plan = Static_mode.plan ~tasks:planned ~remaining in
        let static = make_static ~plan kind in
        let sched = Static_mode.scheduler static in
        let jobs =
          ref
            (Array.of_list
               (List.mapi (fun jid t -> Job.create ~task:t ~jid ~arrival:0) tasks))
        in
        let next_id = ref (List.length tasks) in
        let now = ref (Random.State.int rs 50) in
        for step = 1 to 40 do
          let arr = !jobs in
          let m = Array.length arr in
          (match Random.State.int rs 10 with
          | 0 | 1 | 2 ->
            (* Steady state: at most the clock moves. *)
            ()
          | 3 ->
            (* Dispatch / preempt. *)
            let j = arr.(Random.State.int rs m) in
            (match j.Job.state with
            | Job.Ready -> j.Job.state <- Job.Running
            | Job.Running -> j.Job.state <- Job.Ready
            | _ -> ())
          | 4 ->
            (* Execution progress: Running jobs only (the contract). *)
            Array.iter
              (fun j ->
                if j.Job.state = Job.Running && remaining j > 1 then
                  j.Job.seg_progress <- j.Job.seg_progress + 1)
              arr
          | 5 ->
            (* Lock chain change: Ready <-> Blocked. *)
            let j = arr.(Random.State.int rs m) in
            (match j.Job.state with
            | Job.Ready -> j.Job.state <- Job.Blocked (Random.State.int rs 4)
            | Job.Blocked _ -> j.Job.state <- Job.Ready
            | _ -> ())
          | 6 ->
            (* Completion. *)
            let j = arr.(Random.State.int rs m) in
            if Job.is_live j then j.Job.state <- Job.Completed
          | 7 ->
            (* Abort. *)
            let j = arr.(Random.State.int rs m) in
            if Job.is_live j then j.Job.state <- Job.Aborted
          | 8 ->
            (* Deadline pressure: jump the clock far enough that some
               live job's critical time has passed. *)
            now := !now + 500
          | _ ->
            (* Release: new array identity; every few steps the new job
               belongs to a task the plan has never seen. *)
            let task =
              if Random.State.int rs 3 = 0 then begin
                let t = mk_task rs ~id:!next_id in
                incr next_id;
                t
              end
              else List.nth tasks (Random.State.int rs (List.length tasks))
            in
            let j = Job.create ~task ~jid:(1000 + step) ~arrival:!now in
            jobs := Array.append arr [| j |]);
          now := !now + Random.State.int rs 30;
          let reference = reference_of kind in
          let expected =
            reference.Scheduler.decide ~now:!now ~jobs:!jobs ~remaining
          in
          let msg =
            Printf.sprintf "sequence n=%d rep=%d step=%d" n rep step
          in
          check_same ~msg expected
            (sched.Scheduler.decide ~now:!now ~jobs:!jobs ~remaining)
        done;
        total := Static_mode.add_stats !total (Static_mode.stats static)
      done)
    [ 1; 4; 16; 48 ];
  let s = !total in
  Alcotest.(check bool) "delegation exercised" true
    (s.Static_mode.delegated > 0);
  Alcotest.(check int) "every decide accounted to a path"
    s.Static_mode.decides
    (s.Static_mode.pattern_hits + s.Static_mode.delegated)

(* --- simulator layer --------------------------------------------------- *)

let diff_fields (a : Simulator.result) (b : Simulator.result) =
  let checks =
    [
      ("final_time", a.Simulator.final_time = b.Simulator.final_time);
      ("released", a.Simulator.released = b.Simulator.released);
      ("completed", a.Simulator.completed = b.Simulator.completed);
      ("met", a.Simulator.met = b.Simulator.met);
      ("aborted", a.Simulator.aborted = b.Simulator.aborted);
      ("in_flight", a.Simulator.in_flight = b.Simulator.in_flight);
      ("accrued", compare a.Simulator.accrued b.Simulator.accrued = 0);
      ( "max_possible",
        compare a.Simulator.max_possible b.Simulator.max_possible = 0 );
      ("aur", compare a.Simulator.aur b.Simulator.aur = 0);
      ("cmr", compare a.Simulator.cmr b.Simulator.cmr = 0);
      ("retries_total", a.Simulator.retries_total = b.Simulator.retries_total);
      ("preemptions", a.Simulator.preemptions = b.Simulator.preemptions);
      ("blocked_events", a.Simulator.blocked_events = b.Simulator.blocked_events);
      ("migrations", a.Simulator.migrations = b.Simulator.migrations);
      ( "sched_invocations",
        a.Simulator.sched_invocations = b.Simulator.sched_invocations );
      ("sched_overhead", a.Simulator.sched_overhead = b.Simulator.sched_overhead);
      ("busy", a.Simulator.busy = b.Simulator.busy);
      ( "per_core_busy",
        compare a.Simulator.per_core_busy b.Simulator.per_core_busy = 0 );
      ( "sojourn_samples",
        compare a.Simulator.sojourn_samples b.Simulator.sojourn_samples = 0 );
      ("per_task", compare a.Simulator.per_task b.Simulator.per_task = 0);
      ("audit", compare a.Simulator.audit b.Simulator.audit = 0);
      ( "trace",
        Trace.entries a.Simulator.trace = Trace.entries b.Simulator.trace );
    ]
  in
  List.filter_map (fun (name, ok) -> if ok then None else Some name) checks

let syncs =
  [
    ("ideal", Sync.Ideal);
    ("lock-free", Sync.Lock_free { overhead = 150 });
    ("spin-ticket", Sync.Spin { overhead = 800; kind = Sync.Ticket });
    ("spin-mcs", Sync.Spin { overhead = 800; kind = Sync.Mcs });
  ]

let test_simulator_identical () =
  let specs =
    List.map
      (fun (seed, al) ->
        {
          Workload.default with
          Workload.n_tasks = 6;
          n_objects = 3;
          accesses_per_job = 3;
          target_al = al;
          mean_exec = 50_000;
          access_work = 2_000;
          seed;
        })
      [ (3, 0.4); (4, 1.1) ]
  in
  List.iter
    (fun spec ->
      let tasks = Workload.make spec in
      let horizon = 20 * 50_000 * spec.Workload.n_tasks in
      List.iter
        (fun (sync_name, sync) ->
          List.iter
            (fun (sched_name, sched) ->
              List.iter
                (fun (cores, dispatch, disp_name) ->
                  let config mode =
                    Simulator.config ~tasks ~sync ~sched ~horizon
                      ~seed:(Test_support.seed + spec.Workload.seed)
                      ~trace:true ~cores ~dispatch ~mode ()
                  in
                  let dyn = Simulator.run (config Simulator.Dynamic) in
                  let sta = Simulator.run (config Simulator.Static) in
                  (match diff_fields dyn sta with
                  | [] -> ()
                  | bad ->
                    Alcotest.failf
                      "%s/%s/%s m=%d seed=%d: static diverged on %s"
                      sync_name sched_name disp_name cores
                      spec.Workload.seed (String.concat ", " bad));
                  match sta.Simulator.static with
                  | None ->
                    Alcotest.fail "static run reported no static stats"
                  | Some s ->
                    Alcotest.(check bool) "static layer saw decides" true
                      (s.Static_mode.decides > 0);
                    Alcotest.(check int) "every decide accounted to a path"
                      s.Static_mode.decides
                      (s.Static_mode.pattern_hits + s.Static_mode.delegated))
                [
                  (1, Cores.Global, "global");
                  (2, Cores.Global, "global");
                  (2, Cores.Partitioned, "partitioned");
                ])
            [ ("rua", Simulator.Rua); ("edf", Simulator.Edf) ])
        syncs)
    specs

let test_static_mode_validation () =
  let tasks = Workload.make { Workload.default with Workload.n_tasks = 2 } in
  let bad ~sync ~sched =
    match
      Simulator.run
        (Simulator.config ~tasks ~sync ~sched ~horizon:1_000 ~seed:1
           ~mode:Simulator.Static ())
    with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "rua + lock-based rejected" true
    (bad ~sync:(Sync.Lock_based { overhead = 2_000 }) ~sched:Simulator.Rua);
  Alcotest.(check bool) "edf-pip rejected" true
    (bad ~sync:Sync.Ideal ~sched:Simulator.Edf_pip);
  Alcotest.(check bool) "dynamic result has no static stats" true
    ((Simulator.run
        (Simulator.config ~tasks ~sync:Sync.Ideal ~horizon:100_000 ~seed:1 ()))
       .Simulator.static = None)

let () =
  Test_support.run "static_diff"
    [
      ( "scenes",
        [
          Alcotest.test_case "rua static = reference" `Quick (run_scenes `Rua);
          Alcotest.test_case "edf static = reference" `Quick (run_scenes `Edf);
        ] );
      ( "sequences",
        [
          Alcotest.test_case "rua sequences + forced fallbacks" `Quick
            (run_sequences `Rua);
          Alcotest.test_case "edf sequences + forced fallbacks" `Quick
            (run_sequences `Edf);
        ] );
      ( "simulator",
        [
          Alcotest.test_case "dynamic = static across the grid" `Quick
            test_simulator_identical;
          Alcotest.test_case "config validation" `Quick
            test_static_mode_validation;
        ] );
    ]
