(* EDF+PIP baseline tests: priority inheritance through lock chains,
   dispatch ordering, and end-to-end behaviour vs RUA. *)

module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Task = Rtlf_model.Task
module Job = Rtlf_model.Job
module Resource = Rtlf_model.Resource
module Lock_manager = Rtlf_model.Lock_manager
module Scheduler = Rtlf_core.Scheduler
module Edf_pip = Rtlf_core.Edf_pip
module Simulator = Rtlf_sim.Simulator
module Sync = Rtlf_sim.Sync
module Workload = Rtlf_workload.Workload

let job ~jid ~ct ~rem =
  let task =
    Task.make ~id:jid
      ~tuf:(Tuf.step ~height:1.0 ~c:ct)
      ~arrival:(Uam.periodic ~period:(2 * ct))
      ~exec:rem ()
  in
  Job.create ~task ~jid ~arrival:0

let remaining = Job.remaining_nominal

let with_locks () = Lock_manager.create ~objects:(Resource.create ~n:4)

let test_plain_edf_without_locks () =
  let locks = with_locks () in
  let sched = Edf_pip.make ~locks in
  let a = job ~jid:0 ~ct:500 ~rem:10 in
  let b = job ~jid:1 ~ct:200 ~rem:10 in
  let d = sched.Scheduler.decide ~now:0 ~jobs:[| a; b |] ~remaining in
  Alcotest.(check bool) "earliest ct first" true
    (match (Scheduler.dispatched d) with Some j -> j.Job.jid = 1 | None -> false)

let test_inheritance_direct () =
  (* Holder (late ct) inherits the blocked job's early ct. *)
  let locks = with_locks () in
  let holder = job ~jid:0 ~ct:900 ~rem:10 in
  let urgent = job ~jid:1 ~ct:100 ~rem:10 in
  ignore (Lock_manager.request locks ~jid:0 ~obj:0);
  (match Lock_manager.request locks ~jid:1 ~obj:0 with
  | Lock_manager.Blocked_on _ -> urgent.Job.state <- Job.Blocked 0
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  let jobs = [| holder; urgent |] in
  Alcotest.(check int) "holder inherits ct=100" 100
    (Edf_pip.effective_critical_time ~locks ~jobs holder);
  Alcotest.(check int) "urgent keeps its own" 100
    (Edf_pip.effective_critical_time ~locks ~jobs urgent)

let test_inheritance_transitive () =
  (* j2(ct 100) waits on j1(ct 500) waits on j0(ct 900): j0 inherits
     100 through the chain. *)
  let locks = with_locks () in
  let j0 = job ~jid:0 ~ct:900 ~rem:10 in
  let j1 = job ~jid:1 ~ct:500 ~rem:10 in
  let j2 = job ~jid:2 ~ct:100 ~rem:10 in
  ignore (Lock_manager.request locks ~jid:0 ~obj:0);
  ignore (Lock_manager.request locks ~jid:1 ~obj:1);
  (match Lock_manager.request locks ~jid:1 ~obj:0 with
  | Lock_manager.Blocked_on _ -> j1.Job.state <- Job.Blocked 0
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  (match Lock_manager.request locks ~jid:2 ~obj:1 with
  | Lock_manager.Blocked_on _ -> j2.Job.state <- Job.Blocked 1
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  Alcotest.(check int) "transitive inheritance" 100
    (Edf_pip.effective_critical_time ~locks ~jobs:[| j0; j1; j2 |] j0)

let test_dispatches_inheriting_holder () =
  (* Three jobs: holder (late ct), urgent blocked on it, and an
     unrelated mid-ct job. PIP must run the holder, not the mid job. *)
  let locks = with_locks () in
  let holder = job ~jid:0 ~ct:900 ~rem:10 in
  let urgent = job ~jid:1 ~ct:100 ~rem:10 in
  let mid = job ~jid:2 ~ct:400 ~rem:10 in
  ignore (Lock_manager.request locks ~jid:0 ~obj:0);
  (match Lock_manager.request locks ~jid:1 ~obj:0 with
  | Lock_manager.Blocked_on _ -> urgent.Job.state <- Job.Blocked 0
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  let sched = Edf_pip.make ~locks in
  let d =
    sched.Scheduler.decide ~now:0 ~jobs:[| holder; urgent; mid |] ~remaining
  in
  Alcotest.(check bool) "holder dispatched via inheritance" true
    (match (Scheduler.dispatched d) with Some j -> j.Job.jid = 0 | None -> false)

let test_no_inheritance_without_blocking () =
  let locks = with_locks () in
  let a = job ~jid:0 ~ct:900 ~rem:10 in
  Alcotest.(check int) "own ct" 900
    (Edf_pip.effective_critical_time ~locks ~jobs:[| a |] a)

(* --- index sort ------------------------------------------------------------ *)

(* The decider's in-place position sort against the list sort it
   replaced: the runnable jobs keyed by inherited critical time, sorted
   by (key, jid). Critical times take three values and jids are
   shuffled, so ties decide much of the order; random lock requests on
   three objects block some jobs behind others (chains and inheritance),
   and some jobs have already completed. *)
let list_schedule ~locks jobs =
  let by_ect ((ka : int), a) (kb, b) =
    if ka <> kb then Int.compare ka kb else Int.compare a.Job.jid b.Job.jid
  in
  let keyed = ref [] in
  Array.iter
    (fun j ->
      if Job.is_runnable j then
        keyed := (Edf_pip.effective_critical_time ~locks ~jobs j, j) :: !keyed)
    jobs;
  List.map snd (List.sort by_ect !keyed)

let scene_gen rs =
  let n = Random.State.int rs 25 in
  let jids = Array.init n (fun i -> 2 * i) in
  for i = n - 1 downto 1 do
    let k = Random.State.int rs (i + 1) in
    let t = jids.(i) in
    jids.(i) <- jids.(k);
    jids.(k) <- t
  done;
  let jobs =
    Array.map
      (fun jid -> job ~jid ~ct:(100 * (1 + Random.State.int rs 3)) ~rem:10)
      jids
  in
  let locks = Lock_manager.create ~objects:(Resource.create ~n:3) in
  Array.iter
    (fun j ->
      for _ = 1 to Random.State.int rs 3 do
        let obj = Random.State.int rs 3 in
        if Job.is_runnable j then
          match Lock_manager.request locks ~jid:j.Job.jid ~obj with
          | Lock_manager.Granted -> ()
          | Lock_manager.Blocked_on _ -> j.Job.state <- Job.Blocked obj
      done;
      if Random.State.int rs 8 = 0 && Job.is_runnable j then
        j.Job.state <- Job.Completed)
    jobs;
  (jobs, locks)

let prop_index_sort =
  QCheck.Test.make ~name:"index sort = List.sort by (inherited ct, jid)"
    ~count:400
    (QCheck.make scene_gen ~print:(fun (jobs, _) ->
         String.concat " "
           (Array.to_list
              (Array.map
                 (fun j ->
                   Printf.sprintf "%d@%d%s" j.Job.jid
                     (Job.absolute_critical_time j)
                     (if Job.is_runnable j then "" else "!"))
                 jobs))))
    (fun (jobs, locks) ->
      let d = (Edf_pip.make ~locks).Scheduler.decide ~now:0 ~jobs ~remaining in
      List.map (fun j -> j.Job.jid) (Scheduler.schedule_list d)
      = List.map (fun j -> j.Job.jid) (list_schedule ~locks jobs))

(* --- allocation ------------------------------------------------------------ *)

(* n = 32: holders 0..3 each hold one object and two jobs wait on each
   (jids 4..11), 20 more jobs are runnable. A decide builds one
   dependency chain (blocked, holder) per blocked job: the walk conses
   three cells, 9 words. Folding per runnable job instead built
   runnable x blocked chains, 1,728 words per decide. *)
let test_probe_words () =
  let locks = Lock_manager.create ~objects:(Resource.create ~n:4) in
  let jobs =
    Array.init 32 (fun jid -> job ~jid ~ct:(1_000 - (10 * jid)) ~rem:10)
  in
  for obj = 0 to 3 do
    ignore (Lock_manager.request locks ~jid:obj ~obj);
    for k = 0 to 1 do
      let j = jobs.(4 + (2 * obj) + k) in
      match Lock_manager.request locks ~jid:j.Job.jid ~obj with
      | Lock_manager.Blocked_on _ -> j.Job.state <- Job.Blocked obj
      | Lock_manager.Granted -> Alcotest.fail "expected block"
    done
  done;
  let sched = Edf_pip.make ~locks in
  let decide () = sched.Scheduler.decide ~now:0 ~jobs ~remaining in
  Alcotest.(check (list int)) "schedule = list sort"
    (List.map (fun j -> j.Job.jid) (list_schedule ~locks jobs))
    (List.map (fun j -> j.Job.jid) (Scheduler.schedule_list (decide ())));
  let calls = 200 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (decide ())
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  let budget = 8.0 *. 12.0 in
  if per_call > budget then
    Alcotest.failf
      "%.1f minor words per decide (budget %.0f: 12 per blocked job)"
      per_call budget

(* --- end-to-end ------------------------------------------------------------ *)

let test_underload_meets_all () =
  let spec =
    {
      Workload.default with
      Workload.target_al = 0.3;
      n_objects = 3;
      accesses_per_job = 3;
      mean_exec = 100_000;
      seed = 61;
    }
  in
  let tasks = Workload.make spec in
  let res =
    Simulator.run
      (Simulator.config ~tasks ~sync:(Sync.Lock_based { overhead = 1_000 })
         ~sched:Simulator.Edf_pip ~horizon:(100 * 1_000_000) ~seed:5 ())
  in
  Alcotest.(check (float 1e-9)) "meets all in underload" 1.0
    res.Simulator.cmr

let test_overload_worse_than_rua () =
  (* The classic: EDF thrashes in overload where UA scheduling sheds. *)
  let spec =
    {
      Workload.default with
      Workload.target_al = 1.4;
      n_objects = 4;
      accesses_per_job = 4;
      mean_exec = 100_000;
      seed = 67;
    }
  in
  let tasks = Workload.make spec in
  let run sched =
    Simulator.run
      (Simulator.config ~tasks ~sync:(Sync.Lock_based { overhead = 1_000 })
         ~sched ~horizon:(200 * 1_000_000) ~seed:5 ())
  in
  let pip = run Simulator.Edf_pip in
  let rua = run Simulator.Rua in
  Alcotest.(check bool) "RUA accrues more in overload" true
    (rua.Simulator.aur > pip.Simulator.aur)

let () =
  Test_support.run "edf_pip"
    [
      ( "inheritance",
        [
          Alcotest.test_case "plain EDF without locks" `Quick
            test_plain_edf_without_locks;
          Alcotest.test_case "direct inheritance" `Quick
            test_inheritance_direct;
          Alcotest.test_case "transitive inheritance" `Quick
            test_inheritance_transitive;
          Alcotest.test_case "dispatches inheriting holder" `Quick
            test_dispatches_inheriting_holder;
          Alcotest.test_case "no inheritance without blocking" `Quick
            test_no_inheritance_without_blocking;
        ] );
      ("index_sort", [ Test_support.to_alcotest prop_index_sort ]);
      ( "allocation",
        [
          Alcotest.test_case "one chain per blocked job" `Quick
            test_probe_words;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "underload meets all" `Quick
            test_underload_meets_all;
          Alcotest.test_case "overload worse than RUA" `Quick
            test_overload_worse_than_rua;
        ] );
    ]
