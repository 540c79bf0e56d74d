(* Decision checks for every scheduler.

   The optimized RUA deciders ([Rua_lock_free], [Rua_lock_based]) must
   produce decisions bit-identical to the retained list-based
   [Reference] implementations — dispatch, aborts, rejected, schedule
   order AND the charged [ops] count (the simulator's overhead model
   depends on it) — across seeded scenes sweeping n ∈ {1, 2, 8, 64},
   with and without lock dependency chains. [Edf] and [Edf_pip] have
   a single implementation each and are checked against their
   specification on the same scenes. Every scene is decided twice on
   the same instance, so stale scratch state from the previous call
   would also be caught; both RUA deciders also run mutation sequences
   on one persistent instance. All randomness derives from RTLF_SEED
   via [Test_support]. *)

module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Task = Rtlf_model.Task
module Job = Rtlf_model.Job
module Resource = Rtlf_model.Resource
module Lock_manager = Rtlf_model.Lock_manager
module Scheduler = Rtlf_core.Scheduler
module Reference = Rtlf_core.Reference
module Log2 = Rtlf_core.Log2

let remaining = Job.remaining_nominal

let mk_job rs ~jid =
  let ct = 50 + Random.State.int rs 1950 in
  let rem = 1 + Random.State.int rs 400 in
  let height = 0.1 +. Random.State.float rs 100.0 in
  let tuf =
    if Random.State.bool rs then Tuf.step ~height ~c:ct
    else Tuf.linear ~u0:height ~c:ct
  in
  let task =
    Task.make ~id:jid ~tuf
      ~arrival:(Uam.periodic ~period:(2 * ct))
      ~exec:rem ()
  in
  Job.create ~task ~jid ~arrival:0

(* A frozen scheduling scene. With [with_chains], the first min(5,n)
   jobs form a linear lock dependency chain (holder at the front), and
   half the n >= 8 scenes additionally deadlock the last two jobs on a
   2-cycle, exercising the victim-selection path. *)
let scene rs ~n ~with_chains =
  let jobs = Array.init n (fun jid -> mk_job rs ~jid) in
  let objects = Resource.create ~n:8 in
  let locks = Lock_manager.create ~objects in
  if with_chains then begin
    let k = min 5 n in
    for i = 0 to k - 1 do
      (match Lock_manager.request locks ~jid:i ~obj:i with
      | Lock_manager.Granted -> ()
      | Lock_manager.Blocked_on _ -> assert false);
      if i >= 1 then
        match Lock_manager.request locks ~jid:i ~obj:(i - 1) with
        | Lock_manager.Granted -> ()
        | Lock_manager.Blocked_on _ -> jobs.(i).Job.state <- Job.Blocked (i - 1)
    done;
    if n >= 8 && Random.State.bool rs then begin
      let a = n - 2 and b = n - 1 in
      ignore (Lock_manager.request locks ~jid:a ~obj:6);
      ignore (Lock_manager.request locks ~jid:b ~obj:7);
      (match Lock_manager.request locks ~jid:a ~obj:7 with
      | Lock_manager.Blocked_on _ -> jobs.(a).Job.state <- Job.Blocked 7
      | Lock_manager.Granted -> ());
      match Lock_manager.request locks ~jid:b ~obj:6 with
      | Lock_manager.Blocked_on _ -> jobs.(b).Job.state <- Job.Blocked 6
      | Lock_manager.Granted -> ()
    end
  end;
  (jobs, locks)

let jid_opt = function None -> None | Some j -> Some j.Job.jid
let jids = List.map (fun j -> j.Job.jid)

(* A copy of [d] that outlives its decider's next call. *)
let copy (d : Scheduler.decision) =
  Scheduler.of_lists ~jobs:d.Scheduler.jobs ~aborts:d.Scheduler.aborts
    ~rejected:(Scheduler.rejected_list d) ~schedule:(Scheduler.schedule_list d)
    ~ops:d.Scheduler.ops

(* The contract's shape: [dispatch] is the first runnable entry of the
   schedule slice (or -1 when it has none), and every position is in
   range. *)
let check_dispatch ~msg (d : Scheduler.decision) =
  let schedule = Scheduler.schedule_list d in
  Alcotest.(check (option int))
    (msg ^ ": dispatch = first runnable of the schedule")
    (jid_opt (List.find_opt Job.is_runnable schedule))
    (jid_opt (Scheduler.dispatched d))

let check_same ~msg (expected : Scheduler.decision)
    (got : Scheduler.decision) =
  check_dispatch ~msg got;
  Alcotest.(check (option int))
    (msg ^ ": dispatch")
    (jid_opt (Scheduler.dispatched expected))
    (jid_opt (Scheduler.dispatched got));
  Alcotest.(check (list int))
    (msg ^ ": aborts")
    (jids expected.Scheduler.aborts)
    (jids got.Scheduler.aborts);
  Alcotest.(check (list int))
    (msg ^ ": rejected") (Scheduler.rejected_list expected) (Scheduler.rejected_list got);
  Alcotest.(check (list int))
    (msg ^ ": schedule")
    (jids (Scheduler.schedule_list expected))
    (jids (Scheduler.schedule_list got));
  Alcotest.(check int) (msg ^ ": ops") expected.Scheduler.ops
    got.Scheduler.ops

let run_diff kind () =
  let rs = Test_support.rand_state () in
  (* The lock-oblivious scheduler keeps one instance for the whole
     sweep: its scratch arrays are reused across all 128+ scenes. *)
  let persistent =
    match kind with
    | `Lock_free -> Some (Rtlf_core.Rua_lock_free.make ())
    | `Lock_based -> None
  in
  let count = ref 0 in
  List.iter
    (fun n ->
      List.iter
        (fun with_chains ->
          for rep = 1 to 16 do
            incr count;
            let now = Random.State.int rs 200 in
            let jobs, locks = scene rs ~n ~with_chains in
            let opt =
              match (persistent, kind) with
              | Some s, _ -> s
              | None, `Lock_based -> Rtlf_core.Rua_lock_based.make ~locks
              | None, `Lock_free -> assert false
            in
            let reference =
              match kind with
              | `Lock_free -> Reference.rua_lock_free ()
              | `Lock_based -> Reference.rua_lock_based ~locks
            in
            let expected =
              reference.Scheduler.decide ~now ~jobs ~remaining
            in
            let msg =
              Printf.sprintf "%s n=%d chains=%b rep=%d"
                reference.Scheduler.name n with_chains rep
            in
            check_same ~msg expected
              (opt.Scheduler.decide ~now ~jobs ~remaining);
            (* Same instance, same scene again: the scratch state left
               by the previous call must not leak into the result. *)
            check_same ~msg:(msg ^ " (rerun)") expected
              (opt.Scheduler.decide ~now ~jobs ~remaining)
          done)
        [ false; true ])
    [ 1; 2; 8; 64 ];
  Alcotest.(check bool) "at least 100 scenes" true (!count >= 100)

(* --- lock-based: several victims, absent chain members ------------------- *)

(* Disjoint 2-cycles [(a, b, x, y)] (job a holds x and wants y, b
   holds y and wants x), so one decision aborts a victim per cycle and
   their order in [aborts] — a Hashtbl fold — is pinned against the
   reference. Job 4 waits on object 4, held by a jid that is not in
   [jobs] at all, and job 5 waits on object 5, held by job 6, which has
   just completed: both chains name a member the decider must drop.
   The rest are independent. *)
let cycles_scene rs ~n ~cycles =
  let jobs = Array.init n (fun jid -> mk_job rs ~jid) in
  let objects = Resource.create ~n:(2 + (2 * List.length cycles)) in
  let locks = Lock_manager.create ~objects in
  let request jid obj =
    match Lock_manager.request locks ~jid ~obj with
    | Lock_manager.Granted -> ()
    | Lock_manager.Blocked_on _ ->
      if jid < n then jobs.(jid).Job.state <- Job.Blocked obj
  in
  List.iter
    (fun (a, b, x, y) ->
      request a x;
      request b y;
      request a y;
      request b x)
    cycles;
  request (n + 100) 4;
  request 4 4;
  request 6 5;
  jobs.(6).Job.state <- Job.Completed;
  request 5 5;
  (jobs, locks)

(* Three cycles (jobs 0-1 on objects 0-1, 2-3 on 2-3, 7-8 on 6-7), and
   eight more (jobs 9-24 on objects 8-23): eleven victims or more in
   one decide. [aborts] folds the victim table bucket by bucket, so its
   order pins the table's bucket count (16, the floor [Hashtbl.create]
   rounds up to) as well as the jids' hashes. *)
let few = [ (0, 1, 0, 1); (2, 3, 2, 3); (7, 8, 6, 7) ]

let many =
  few @ List.init 8 (fun i -> (9 + (2 * i), 10 + (2 * i), 8 + (2 * i), 9 + (2 * i)))

let run_cycles () =
  let rs = Test_support.rand_state () in
  List.iter
    (fun (cycles, min_n) ->
      for rep = 1 to 24 do
        let n = min_n + Random.State.int rs 8 in
        let now = Random.State.int rs 200 in
        let jobs, locks = cycles_scene rs ~n ~cycles in
        let expected =
          (Reference.rua_lock_based ~locks).Scheduler.decide ~now ~jobs
            ~remaining
        in
        (* Ties (both members expired) can abort both jobs of a cycle. *)
        Alcotest.(check bool) "a victim per cycle or more" true
          (List.length expected.Scheduler.aborts >= List.length cycles);
        let opt = Rtlf_core.Rua_lock_based.make ~locks in
        let msg = Printf.sprintf "cycles n=%d rep=%d" n rep in
        check_same ~msg expected (opt.Scheduler.decide ~now ~jobs ~remaining);
        check_same ~msg:(msg ^ " (rerun)") expected
          (opt.Scheduler.decide ~now ~jobs ~remaining)
      done)
    [ (few, 9); (many, 25) ]

(* --- tie-dense scenes ----------------------------------------------------- *)

let shuffle rs a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Scenes where the sort tiebreaks decide the outcome. Jids are a
   shuffle of the array indices, so jid order is not array order.
   - [`Pud]: step TUFs with heights {10, 20} and costs {5, 10}, so most
     jobs share a PUD and jid breaks the tie.
   - [`Ct]: every job arrives at 0 with critical time 60 or 120, so most
     share an eff_ct and admission rank breaks the tie; the work far
     exceeds both, so admission rejects many.
   - [`Dead]: every job already completed or aborted.
   A few live jobs are Running or Blocked (live but not runnable). *)
let tie_scene rs ~n kind =
  let jids = Array.init n (fun i -> i) in
  shuffle rs jids;
  Array.map
    (fun jid ->
      let ct, rem, tuf =
        match kind with
        | `Pud ->
          let ct = 20 + Random.State.int rs 300 in
          let height = if Random.State.bool rs then 10.0 else 20.0 in
          let rem = if Random.State.bool rs then 5 else 10 in
          (ct, rem, Tuf.step ~height ~c:ct)
        | `Ct | `Dead ->
          let ct = if Random.State.bool rs then 60 else 120 in
          let rem = 1 + Random.State.int rs 40 in
          let height = 0.1 +. Random.State.float rs 100.0 in
          let tuf =
            if Random.State.bool rs then Tuf.step ~height ~c:ct
            else Tuf.linear ~u0:height ~c:ct
          in
          (ct, rem, tuf)
      in
      let task =
        Task.make ~id:jid ~tuf
          ~arrival:(Uam.periodic ~period:(2 * ct))
          ~exec:rem ()
      in
      let j = Job.create ~task ~jid ~arrival:0 in
      (match (kind, Random.State.int rs 8) with
      | `Dead, k -> j.Job.state <- (if k < 4 then Job.Completed else Job.Aborted)
      | _, 0 -> j.Job.state <- Job.Running
      | _, 1 -> j.Job.state <- Job.Blocked 0
      | _ -> ());
      j)
    jids

let tie_kinds = [ (`Pud, "pud-ties"); (`Ct, "ct-ties"); (`Dead, "all-dead") ]
let tie_sizes = [ 3; 17; 31; 33 ]

(* Pairs of live jobs sharing a key: guards the scenes against drifting
   into tie-free shapes that no longer exercise the tiebreaks. *)
let shared_pairs key jobs =
  let keys =
    List.filter_map
      (fun j -> if Job.is_live j then Some (key j) else None)
      (Array.to_list jobs)
  in
  let rec count = function
    | [] -> 0
    | k :: rest -> List.length (List.filter (( = ) k) rest) + count rest
  in
  count keys

(* One persistent instance per decider. The lock-based one reads an
   empty lock table, so every scene takes its no-waiter path. *)
let run_tie_diff kind () =
  let rs = Test_support.rand_state () in
  let locks = Lock_manager.create ~objects:(Resource.create ~n:1) in
  let opt, reference =
    match kind with
    | `Lock_free -> (Rtlf_core.Rua_lock_free.make (), Reference.rua_lock_free)
    | `Lock_based ->
      ( Rtlf_core.Rua_lock_based.make ~locks,
        fun () -> Reference.rua_lock_based ~locks )
  in
  let pud_ties = ref 0 and ct_ties = ref 0 in
  List.iter
    (fun (shape, label) ->
      List.iter
        (fun n ->
          for rep = 1 to 8 do
            let now = Random.State.int rs 20 in
            let jobs = tie_scene rs ~n shape in
            (match shape with
            | `Pud ->
              pud_ties :=
                !pud_ties
                + shared_pairs
                    (fun j -> Rtlf_core.Pud.of_job ~now ~remaining j)
                    jobs
            | `Ct -> ct_ties := !ct_ties + shared_pairs Job.absolute_critical_time jobs
            | `Dead -> ());
            let expected =
              (reference ()).Scheduler.decide ~now ~jobs ~remaining
            in
            let msg = Printf.sprintf "%s n=%d rep=%d" label n rep in
            check_same ~msg expected (opt.Scheduler.decide ~now ~jobs ~remaining);
            check_same ~msg:(msg ^ " (rerun)") expected
              (opt.Scheduler.decide ~now ~jobs ~remaining)
          done)
        tie_sizes)
    tie_kinds;
  Alcotest.(check bool) "PUD ties present" true (!pud_ties >= 100);
  Alcotest.(check bool) "critical-time ties present" true (!ct_ties >= 100)

(* --- warm start across arrays -------------------------------------------- *)

(* The simulator hands the lock-free decider a fresh jid-sorted array
   whenever membership changes, and the decider seeds its sorts from
   the previous array's orders. One persistent instance follows a live
   set through arrivals (a new, higher jid), departures, execution
   progress (same membership in a fresh array), shuffled arrays (the
   merge walk finds few survivors) and resolved jobs left in the
   array. The live set drifts across the warm start's size cut-off.
   Every step must equal a fresh reference, [ops] included. *)
let run_warm_arrays () =
  let rs = Test_support.rand_state () in
  let counts = Array.make 5 0 in
  for rep = 1 to 24 do
    let opt = Rtlf_core.Rua_lock_free.make () in
    let next_jid = ref 0 in
    let fresh () =
      let j = mk_job rs ~jid:!next_jid in
      incr next_jid;
      j
    in
    let live = ref (List.init (2 + Random.State.int rs 40) (fun _ -> fresh ())) in
    let now = ref (Random.State.int rs 50) in
    for step = 1 to 50 do
      let kind = Random.State.int rs 5 in
      counts.(kind) <- counts.(kind) + 1;
      (match kind with
      | 0 -> live := !live @ [ fresh () ]
      | 1 -> (
        match !live with
        | [] | [ _ ] -> ()
        | l ->
          let gone = Random.State.int rs (List.length l) in
          live := List.filteri (fun i _ -> i <> gone) l)
      | 2 -> (
        match !live with
        | [] -> ()
        | l ->
          let j = List.nth l (Random.State.int rs (List.length l)) in
          if Job.remaining_nominal j > 1 then
            j.Job.seg_progress <- j.Job.seg_progress + 1)
      | 3 -> ()
      | _ -> (
        match !live with
        | [] -> ()
        | l ->
          let j = List.nth l (Random.State.int rs (List.length l)) in
          j.Job.state <-
            (if Random.State.bool rs then Job.Completed else Job.Blocked 0)));
      let jobs = Array.of_list !live in
      if kind = 3 then shuffle rs jobs;
      (* A resolved job stays in this step's array only. *)
      live := List.filter Job.is_live !live;
      now := !now + Random.State.int rs 30;
      let expected =
        (Reference.rua_lock_free ()).Scheduler.decide ~now:!now ~jobs
          ~remaining
      in
      let msg =
        Printf.sprintf "warm rep=%d step=%d kind=%d n=%d" rep step kind
          (Array.length jobs)
      in
      check_same ~msg expected (opt.Scheduler.decide ~now:!now ~jobs ~remaining)
    done
  done;
  Array.iteri
    (fun kind c ->
      Alcotest.(check bool) (Printf.sprintf "steps of kind %d" kind) true (c >= 100))
    counts

(* A cold n = 256 scene in reversed order: every job is new to a warmed
   instance, so the seeds are index order and rank order, while PUD and
   critical time both rise with the index. Both seeds are then exactly
   reversed, and each insertion pass must hand over to the heapsort.
   Then one job leaves and one arrives, and both orders re-sort from
   the warm seed. *)
let run_warm_reversed () =
  let opt = Rtlf_core.Rua_lock_free.make () in
  let reversed ~base n =
    Array.init n (fun i ->
        let ct = 1_000 + (100 * i) in
        let task =
          Task.make ~id:(base + i)
            ~tuf:(Tuf.step ~height:(float_of_int (1 + base + i)) ~c:ct)
            ~arrival:(Uam.periodic ~period:(2 * ct))
            ~exec:150 ()
        in
        Job.create ~task ~jid:(base + i) ~arrival:0)
  in
  let decide ~msg ~now jobs =
    let expected =
      (Reference.rua_lock_free ()).Scheduler.decide ~now ~jobs ~remaining
    in
    check_same ~msg expected (opt.Scheduler.decide ~now ~jobs ~remaining);
    if Array.length jobs > 16 then
      Alcotest.(check bool) (msg ^ ": admits some, rejects some") true
        ((Scheduler.schedule_list expected) <> [] && (Scheduler.rejected_list expected) <> [])
  in
  decide ~msg:"warm-up" ~now:0 (reversed ~base:0 16);
  let cold = reversed ~base:100 256 in
  let pud = Array.map (fun j -> Rtlf_core.Pud.of_job ~now:3 ~remaining j) cold in
  let jid = Array.map (fun j -> j.Job.jid) cold in
  Alcotest.(check bool) "index order exhausts the insertion budget" false
    (Rtlf_core.Rua_lock_free.resort_pud ~pud ~jid (Array.init 256 Fun.id) 256);
  let ect = Array.init 256 (fun r -> Job.absolute_critical_time cold.(255 - r)) in
  Alcotest.(check bool) "rank order exhausts the insertion budget" false
    (Rtlf_core.Rua_lock_free.resort_ecf ~ect (Array.init 256 Fun.id) 256);
  decide ~msg:"cold reversed n=256" ~now:3 cold;
  let fewer = Array.of_list (List.filter (fun j -> j.Job.jid <> 150) (Array.to_list cold)) in
  decide ~msg:"reversed n=256, one gone" ~now:5 fewer;
  let more = Array.append fewer (reversed ~base:400 1) in
  decide ~msg:"reversed n=256, one new" ~now:7 more

(* --- adaptive sorts ------------------------------------------------------- *)

(* The warm start's sorts against the cold heapsorts: tie-dense keys
   (PUDs from a handful of values, infinity among them; a handful of
   critical times), from random and from nearly sorted starting
   permutations. Both paths must give the cold sort's permutation, and
   both must be taken often: the insertion pass alone, and the
   heapsort after the insertion budget runs out. *)
let nearly_sorted rs sorted n =
  let perm = Array.copy sorted in
  for _ = 1 to Random.State.int rs 4 do
    (* Move one entry to a random place, as an arrival or a PUD change
       does. *)
    let a = Random.State.int rs n and b = Random.State.int rs n in
    let x = perm.(a) in
    if a < b then Array.blit perm (a + 1) perm a (b - a)
    else Array.blit perm b perm (b + 1) (a - b);
    perm.(b) <- x
  done;
  perm

let start_perm rs sorted n =
  if Random.State.bool rs then nearly_sorted rs sorted n
  else begin
    let p = Array.init n Fun.id in
    shuffle rs p;
    p
  end

let test_resort_pud () =
  let rs = Test_support.rand_state () in
  let insertion = ref 0 and fallback = ref 0 in
  let values = [| 0.0; 0.5; 1.0; 2.0; infinity |] in
  for case = 1 to 600 do
    let n = 1 + Random.State.int rs 80 in
    let pud =
      Array.init n (fun _ -> values.(Random.State.int rs (Array.length values)))
    in
    let jid = Array.init n (fun i -> 3 * i) in
    shuffle rs jid;
    let cold = Array.init n Fun.id in
    Rtlf_core.Pud.sort ~pud ~jid cold n;
    let perm = start_perm rs cold n in
    if Rtlf_core.Rua_lock_free.resort_pud ~pud ~jid perm n then incr insertion
    else incr fallback;
    Alcotest.(check (array int)) (Printf.sprintf "case %d n=%d" case n) cold perm
  done;
  Alcotest.(check bool) "insertion pass alone" true (!insertion >= 100);
  Alcotest.(check bool) "heapsort fallback" true (!fallback >= 100)

let test_resort_ecf () =
  let rs = Test_support.rand_state () in
  let insertion = ref 0 and fallback = ref 0 in
  for case = 1 to 600 do
    let n = 1 + Random.State.int rs 80 in
    let ect = Array.init n (fun _ -> 100 * Random.State.int rs 6) in
    let spec =
      List.init n (fun r -> (ect.(r), r)) |> List.sort compare |> List.map snd
    in
    let cold = Array.init n Fun.id in
    Rtlf_core.Rua_lock_free.sort_ecf ~ect cold n;
    Alcotest.(check (list int)) "heapsort = (eff_ct, rank)" spec (Array.to_list cold);
    let perm = start_perm rs cold n in
    if Rtlf_core.Rua_lock_free.resort_ecf ~ect perm n then incr insertion
    else incr fallback;
    Alcotest.(check (array int)) (Printf.sprintf "case %d n=%d" case n) cold perm
  done;
  Alcotest.(check bool) "insertion pass alone" true (!insertion >= 100);
  Alcotest.(check bool) "heapsort fallback" true (!fallback >= 100)

(* --- EDF specification ---------------------------------------------------- *)

(* EDF and EDF+PIP have one implementation each, so they are checked
   against their definition instead of a twin: the schedule is exactly
   the runnable jobs in (key, jid) order, dispatch is its head, nothing
   is aborted or rejected, and [ops] is the documented charge. *)
let check_spec ~key ~ops ~msg jobs (got : Scheduler.decision) =
  check_dispatch ~msg got;
  let schedule =
    Array.to_list jobs
    |> List.filter Job.is_runnable
    |> List.map (fun j -> (key j, j.Job.jid))
    |> List.sort compare |> List.map snd
  in
  Alcotest.(check (list int))
    (msg ^ ": schedule") schedule
    (jids (Scheduler.schedule_list got));
  Alcotest.(check (option int))
    (msg ^ ": dispatch")
    (List.nth_opt schedule 0)
    (jid_opt (Scheduler.dispatched got));
  Alcotest.(check (list int)) (msg ^ ": aborts") [] (jids got.Scheduler.aborts);
  Alcotest.(check (list int)) (msg ^ ": rejected") [] (Scheduler.rejected_list got);
  Alcotest.(check int) (msg ^ ": ops") ops got.Scheduler.ops

(* EDF charges every array entry, dead ones included. *)
let check_edf ~msg ~now:_ jobs =
  check_spec ~key:Job.absolute_critical_time ~ops:(Array.length jobs) ~msg
    jobs

(* EDF+PIP ranks by inherited critical time and charges live + live². *)
let check_edf_pip ~locks ~msg ~now:_ jobs =
  let live = List.length (List.filter Job.is_live (Array.to_list jobs)) in
  check_spec
    ~key:(Rtlf_core.Edf_pip.effective_critical_time ~locks ~jobs)
    ~ops:(live + (live * live))
    ~msg jobs

(* The random scenes of [run_diff] and the tie-dense scenes of
   [run_tie_diff] (each from a fresh seed stream, so the scenes are
   the same), decided twice on one instance: the first decision must
   meet the spec and the second must equal it. EDF keeps one instance
   for the whole sweep. *)
let run_spec kind () =
  let edf = Rtlf_core.Edf.make () in
  let decide_twice ~msg ~now ~locks jobs =
    let sched, check =
      match kind with
      | `Edf -> (edf, check_edf)
      | `Edf_pip -> (Rtlf_core.Edf_pip.make ~locks, check_edf_pip ~locks)
    in
    let first = copy (sched.Scheduler.decide ~now ~jobs ~remaining) in
    let msg = sched.Scheduler.name ^ " " ^ msg in
    check ~msg ~now jobs first;
    check_same ~msg:(msg ^ " (rerun)") first
      (sched.Scheduler.decide ~now ~jobs ~remaining)
  in
  let rs = Test_support.rand_state () in
  let count = ref 0 in
  List.iter
    (fun n ->
      List.iter
        (fun with_chains ->
          for rep = 1 to 16 do
            incr count;
            let now = Random.State.int rs 200 in
            let jobs, locks = scene rs ~n ~with_chains in
            decide_twice ~now ~locks jobs
              ~msg:(Printf.sprintf "n=%d chains=%b rep=%d" n with_chains rep)
          done)
        [ false; true ])
    [ 1; 2; 8; 64 ];
  let rs = Test_support.rand_state () in
  let ct_ties = ref 0 in
  let no_locks = Lock_manager.create ~objects:(Resource.create ~n:1) in
  List.iter
    (fun (shape, label) ->
      List.iter
        (fun n ->
          for rep = 1 to 8 do
            incr count;
            let now = Random.State.int rs 20 in
            let jobs = tie_scene rs ~n shape in
            ct_ties := !ct_ties + shared_pairs Job.absolute_critical_time jobs;
            decide_twice ~now ~locks:no_locks jobs
              ~msg:(Printf.sprintf "%s n=%d rep=%d" label n rep)
          done)
        tie_sizes)
    tie_kinds;
  Alcotest.(check bool) "at least 100 scenes" true (!count >= 100);
  Alcotest.(check bool) "critical-time ties present" true (!ct_ties >= 100)

(* --- decision ownership ---------------------------------------------------- *)

(* Each instance overwrites one record: two successive decides return
   the same physical record, and what a caller copied out of the first
   ([schedule_list], [rejected_list]) is still the first decision after
   the second call. A fresh instance re-decides the first scene as the
   witness. *)
let test_same_record () =
  let rs = Test_support.rand_state () in
  let locks = Lock_manager.create ~objects:(Resource.create ~n:1) in
  let makes =
    [
      (fun () -> Rtlf_core.Rua_lock_free.make ());
      (fun () -> Rtlf_core.Rua_lock_based.make ~locks);
      Rtlf_core.Edf.make;
      (fun () -> Rtlf_core.Edf_pip.make ~locks);
    ]
  in
  List.iter
    (fun make ->
      for rep = 1 to 8 do
        let first = tie_scene rs ~n:17 `Ct in
        let second = tie_scene rs ~n:(1 + Random.State.int rs 33) `Ct in
        let sched = make () in
        let msg = Printf.sprintf "%s rep=%d" sched.Scheduler.name rep in
        let d1 = sched.Scheduler.decide ~now:3 ~jobs:first ~remaining in
        let schedule = jids (Scheduler.schedule_list d1) in
        let rejected = Scheduler.rejected_list d1 in
        let d2 = sched.Scheduler.decide ~now:5 ~jobs:second ~remaining in
        Alcotest.(check bool) (msg ^ ": one record") true (d1 == d2);
        Alcotest.(check bool) (msg ^ ": record holds the second array") true
          (d2.Scheduler.jobs == second);
        let witness = (make ()).Scheduler.decide ~now:3 ~jobs:first ~remaining in
        Alcotest.(check (list int)) (msg ^ ": schedule copy kept")
          (jids (Scheduler.schedule_list witness)) schedule;
        Alcotest.(check (list int)) (msg ^ ": rejected copy kept")
          (Scheduler.rejected_list witness) rejected;
        check_same ~msg:(msg ^ ": second")
          ((make ()).Scheduler.decide ~now:5 ~jobs:second ~remaining)
          d2
      done)
    makes

(* --- EDF index sort ------------------------------------------------------- *)

(* EDF's in-place position sort against the list sort it replaced, on
   tie-dense critical times (three values) and shuffled jids, with some
   jobs blocked or resolved. *)
let edf_list_schedule jobs =
  let by_ct a b =
    let ca = Job.absolute_critical_time a
    and cb = Job.absolute_critical_time b in
    if ca <> cb then Int.compare ca cb else Int.compare a.Job.jid b.Job.jid
  in
  let runnable =
    Array.fold_right
      (fun j acc -> if Job.is_runnable j then j :: acc else acc)
      jobs []
  in
  List.sort by_ct runnable

let tie_jobs_gen rs =
  let n = Random.State.int rs 41 in
  let jids = Array.init n (fun i -> 3 * i) in
  shuffle rs jids;
  Array.init n (fun i ->
      let ct = 100 * (1 + Random.State.int rs 3) in
      let task =
        Task.make ~id:i ~tuf:(Tuf.step ~height:1.0 ~c:ct)
          ~arrival:(Uam.periodic ~period:(2 * ct)) ~exec:10 ()
      in
      let j = Job.create ~task ~jid:jids.(i) ~arrival:0 in
      (match Random.State.int rs 6 with
      | 0 -> j.Job.state <- Job.Blocked 0
      | 1 -> j.Job.state <- Job.Completed
      | 2 -> j.Job.state <- Job.Running
      | _ -> ());
      j)

let prop_edf_index_sort =
  QCheck.Test.make ~name:"edf index sort = List.sort by (ct, jid)" ~count:500
    (QCheck.make tie_jobs_gen ~print:(fun jobs ->
         String.concat " "
           (Array.to_list
              (Array.map
                 (fun j ->
                   Printf.sprintf "%d@%d" j.Job.jid
                     (Job.absolute_critical_time j))
                 jobs))))
    (fun jobs ->
      let d = (Rtlf_core.Edf.make ()).Scheduler.decide ~now:0 ~jobs ~remaining in
      jids (Scheduler.schedule_list d) = jids (edf_list_schedule jobs))

(* --- allocation ------------------------------------------------------------ *)

(* A warm decide allocates nothing: each instance writes its one
   decision record, and a utility under a linear or parabolic TUF stays
   unboxed. [mk_tuf_job] draws jobs of one TUF class. *)
let tuf_classes = [ `Step; `Linear; `Parabolic ]

let tuf_name = function
  | `Step -> "step"
  | `Linear -> "linear"
  | `Parabolic -> "parabolic"

let mk_tuf_job rs ~tuf ~jid =
  let ct = 50 + Random.State.int rs 1950 in
  let rem = 1 + Random.State.int rs 400 in
  let height = 0.1 +. Random.State.float rs 100.0 in
  let tuf =
    match tuf with
    | `Step -> Tuf.step ~height ~c:ct
    | `Linear -> Tuf.linear ~u0:height ~c:ct
    | `Parabolic -> Tuf.parabolic ~u0:height ~c:ct
  in
  let task =
    Task.make ~id:jid ~tuf ~arrival:(Uam.periodic ~period:(2 * ct)) ~exec:rem ()
  in
  Job.create ~task ~jid ~arrival:0

(* Minor words per call over 200 calls of [sched], alternating arrays
   [b] and [a], after warm-up calls that grow the scratch arrays (the
   lock-free decider rotates three buffers through its orders, so each
   reaches full size only after a few rebuilds). *)
let words_per_call sched ~a ~b =
  for _ = 1 to 4 do
    ignore (sched.Scheduler.decide ~now:0 ~jobs:b ~remaining);
    ignore (sched.Scheduler.decide ~now:0 ~jobs:a ~remaining)
  done;
  let calls = 200 in
  let before = Gc.minor_words () in
  for k = 1 to calls do
    let jobs = if k land 1 = 1 then b else a in
    ignore (sched.Scheduler.decide ~now:0 ~jobs ~remaining)
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let check_words ~msg per_call =
  if per_call > 0.0 then
    Alcotest.failf "%s: %.2f minor words per warm decide (budget 0)" msg
      per_call

(* Every lock-free call misses the cache and rebuilds: the arrays are
   two disjoint ones (no survivor to seed from) and two that differ by
   one arrival (the warm start). A third pair is one array twice, the
   cache-hit path. *)
let test_rebuild_alloc_budget () =
  let rs = Test_support.rand_state () in
  List.iter
    (fun tuf ->
      List.iter
        (fun n ->
          let job jid = mk_tuf_job rs ~tuf ~jid in
          let a = Array.init n job in
          let disjoint = Array.init n (fun i -> job (n + i)) in
          let arrival = Array.append a [| job (2 * n) |] in
          List.iter
            (fun (label, b) ->
              check_words
                ~msg:(Printf.sprintf "%s %s n=%d" (tuf_name tuf) label n)
                (words_per_call (Rtlf_core.Rua_lock_free.make ()) ~a ~b))
            [ ("disjoint", disjoint); ("arrival", arrival); ("cache hit", a) ])
        [ 32; 64 ])
    tuf_classes

(* With no waiters, neither the lock-based decider nor EDF+PIP asks the
   lock table for a chain, and EDF never does. *)
let test_lock_based_alloc_budget () =
  let rs = Test_support.rand_state () in
  let locks = Lock_manager.create ~objects:(Resource.create ~n:1) in
  List.iter
    (fun tuf ->
      List.iter
        (fun n ->
          let a = Array.init n (fun jid -> mk_tuf_job rs ~tuf ~jid) in
          let b = Array.init n (fun i -> mk_tuf_job rs ~tuf ~jid:(n + i)) in
          List.iter
            (fun sched ->
              check_words
                ~msg:
                  (Printf.sprintf "%s %s n=%d" sched.Scheduler.name
                     (tuf_name tuf) n)
                (words_per_call sched ~a ~b))
            [
              Rtlf_core.Rua_lock_based.make ~locks;
              Rtlf_core.Edf.make ();
              Rtlf_core.Edf_pip.make ~locks;
            ])
        [ 32; 64 ])
    tuf_classes

(* --- incremental sequences ---------------------------------------------- *)

(* The lock-free RUA decider carries a cross-invocation decision cache:
   a persistent instance decided against the same evolving jobs array
   must stay bit-identical to a fresh [Reference] at EVERY step —
   through cache hits (steady states where only [now] advances or a
   job flips Ready<->Running) and through rebuilds (segment progress,
   completions, unblocking, [now] passing the schedule's minimum
   slack). Mutations are biased toward no-ops so both paths are
   exercised many times per sequence. EDF runs the same sequences
   against its specification. [expect] checks one step's decision. *)
let incremental_sequence ~make ~expect rs ~label ~n jobs =
  let opt = make () in
  let now = ref (Random.State.int rs 50) in
  for step = 1 to 40 do
    (match Random.State.int rs 8 with
    | 0 | 1 | 2 | 3 ->
      (* Steady state: at most the clock moves. *)
      ()
    | 4 ->
      (* Execution progress inside the current segment: the job's
         remaining cost shrinks. *)
      let j = jobs.(Random.State.int rs n) in
      if Job.is_live j && Job.remaining_nominal j > 1 then
        j.Job.seg_progress <- j.Job.seg_progress + 1
    | 5 ->
      (* Dispatch / preempt / unblock: Ready<->Running keeps the
         runnable flag (and the cached decision) valid; leaving
         Blocked does not. *)
      let j = jobs.(Random.State.int rs n) in
      (match j.Job.state with
      | Job.Ready -> j.Job.state <- Job.Running
      | Job.Running -> j.Job.state <- Job.Ready
      | Job.Blocked _ -> j.Job.state <- Job.Ready
      | Job.Completed | Job.Aborted -> ())
    | 6 ->
      (* Departure: the job leaves the live set. *)
      let j = jobs.(Random.State.int rs n) in
      if Job.is_live j then j.Job.state <- Job.Completed
    | _ ->
      (* Abort (e.g. deadlock victim elsewhere in the system). *)
      let j = jobs.(Random.State.int rs n) in
      if Job.is_live j then j.Job.state <- Job.Aborted);
    now := !now + Random.State.int rs 30;
    let msg =
      Printf.sprintf "incremental %s %s step=%d" opt.Scheduler.name label step
    in
    expect ~msg ~now:!now jobs (opt.Scheduler.decide ~now:!now ~jobs ~remaining)
  done

let run_incremental ~make ~expect () =
  let rs = Test_support.rand_state () in
  List.iter
    (fun n ->
      for rep = 1 to 8 do
        let with_chains = n >= 4 && Random.State.bool rs in
        let jobs, _locks = scene rs ~n ~with_chains in
        let label = Printf.sprintf "n=%d chains=%b rep=%d" n with_chains rep in
        incremental_sequence ~make ~expect rs ~label ~n jobs
      done)
    [ 1; 4; 16; 64 ];
  List.iter
    (fun (shape, name) ->
      List.iter
        (fun n ->
          for rep = 1 to 4 do
            let jobs = tie_scene rs ~n shape in
            let label = Printf.sprintf "%s n=%d rep=%d" name n rep in
            incremental_sequence ~make ~expect rs ~label ~n jobs
          done)
        tie_sizes)
    tie_kinds

(* --- lock-based sequences ------------------------------------------------ *)

(* One persistent lock-based instance runs over a lock table and a jobs
   array that evolve step by step: arrivals grow the array and
   departures of resolved jobs shrink it; lock requests grant or block;
   releases, completions and aborts hand objects to the next waiter;
   a job can vanish from the array while the lock table still names
   it; and the deadlock victims a decision names are usually aborted
   before the next step. At every step the decision must equal a fresh
   reference's, so scratch state left by earlier, larger or
   differently shaped calls cannot leak. Returns (steps with a waiter,
   steps with none, steps with a victim): the decider takes its chain
   path only in the first. *)
let lock_sequence rs ~label =
  let locks = Lock_manager.create ~objects:(Resource.create ~n:4) in
  let opt = Rtlf_core.Rua_lock_based.make ~locks in
  let next_jid = ref 0 in
  let fresh () =
    let j = mk_job rs ~jid:!next_jid in
    incr next_jid;
    j
  in
  let jobs = ref (Array.init (1 + Random.State.int rs 6) (fun _ -> fresh ())) in
  let now = ref (Random.State.int rs 50) in
  let waiting = ref 0 and free = ref 0 and victims = ref 0 in
  let pick () =
    let a = !jobs in
    if Array.length a = 0 then None
    else Some a.(Random.State.int rs (Array.length a))
  in
  let wake = function
    | None -> ()
    | Some jid ->
      Array.iter
        (fun j -> if j.Job.jid = jid then j.Job.state <- Job.Ready)
        !jobs
  in
  let request j obj =
    if Job.is_runnable j then
      match Lock_manager.request locks ~jid:j.Job.jid ~obj with
      | Lock_manager.Granted -> ()
      | Lock_manager.Blocked_on _ -> j.Job.state <- Job.Blocked obj
  in
  let resolve state j =
    if Job.is_live j then begin
      List.iter (fun (_, owner) -> wake owner)
        (Lock_manager.release_all locks ~jid:j.Job.jid);
      j.Job.state <- state
    end
  in
  for step = 1 to 60 do
    (match Random.State.int rs 14 with
    | 0 | 1 ->
      if Array.length !jobs < 24 then jobs := Array.append !jobs [| fresh () |]
    | 2 | 3 | 4 ->
      Option.iter (fun j -> request j (Random.State.int rs 4)) (pick ())
    | 5 -> (
      match pick () with
      | Some j -> (
        match Lock_manager.holding locks ~jid:j.Job.jid with
        | obj :: _ -> wake (Lock_manager.release locks ~jid:j.Job.jid ~obj)
        | [] -> ())
      | None -> ())
    | 6 -> Option.iter (resolve Job.Completed) (pick ())
    | 7 -> Option.iter (resolve Job.Aborted) (pick ())
    | 8 -> jobs := Array.of_list (List.filter Job.is_live (Array.to_list !jobs))
    | 9 -> (
      (* The job leaves the array but keeps its locks and waits. *)
      match pick () with
      | Some g ->
        jobs := Array.of_list (List.filter (( != ) g) (Array.to_list !jobs))
      | None -> ())
    | 10 -> (
      match pick () with
      | Some j when Job.is_live j && Job.remaining_nominal j > 1 ->
        j.Job.seg_progress <- j.Job.seg_progress + 1
      | _ -> ())
    | 11 | 12 -> (
      (* Two jobs each take one object and then ask for the other's:
         a deadlock when both first requests are granted. *)
      match (pick (), pick ()) with
      | Some a, Some b when a != b ->
        let x = Random.State.int rs 4 in
        let y = (x + 1 + Random.State.int rs 3) mod 4 in
        request a x;
        request b y;
        request a y;
        request b x
      | _ -> ())
    | _ -> ());
    now := !now + Random.State.int rs 30;
    let jobs = !jobs in
    let expected =
      (Reference.rua_lock_based ~locks).Scheduler.decide ~now:!now ~jobs
        ~remaining
    in
    if Lock_manager.blocked_jobs locks <> [] then incr waiting else incr free;
    if expected.Scheduler.aborts <> [] then incr victims;
    let msg = Printf.sprintf "lock sequence %s step=%d" label step in
    let got = opt.Scheduler.decide ~now:!now ~jobs ~remaining in
    check_same ~msg expected got;
    if Random.State.int rs 4 > 0 then
      List.iter (resolve Job.Aborted) got.Scheduler.aborts
  done;
  (!waiting, !free, !victims)

let run_lock_sequences () =
  let rs = Test_support.rand_state () in
  let waiting = ref 0 and free = ref 0 and victims = ref 0 in
  for rep = 1 to 40 do
    let w, f, v = lock_sequence rs ~label:(Printf.sprintf "rep=%d" rep) in
    waiting := !waiting + w;
    free := !free + f;
    victims := !victims + v
  done;
  Alcotest.(check bool) "steps with waiters" true (!waiting >= 500);
  Alcotest.(check bool) "steps without waiters" true (!free >= 500);
  Alcotest.(check bool) "steps with deadlock victims" true (!victims >= 20)

(* --- Log2 --------------------------------------------------------------- *)

let test_log2_boundaries () =
  List.iter
    (fun (n, expect) ->
      Alcotest.(check int) (Printf.sprintf "ceil %d" n) expect (Log2.ceil n))
    [
      (1, 1);
      (2, 1);
      (3, 2);
      (4, 2);
      (7, 3);
      (8, 3);
      (15, 4);
      (16, 4);
      (1023, 10);
      (1024, 10);
      (1025, 11);
    ]

let () =
  Test_support.run "scheduler_diff"
    [
      ( "log2",
        [
          Alcotest.test_case "boundary values" `Quick test_log2_boundaries;
        ] );
      ( "differential",
        [
          Alcotest.test_case "rua-lock-free = reference" `Quick
            (run_diff `Lock_free);
          Alcotest.test_case "rua-lock-based = reference" `Quick
            (run_diff `Lock_based);
          Alcotest.test_case "rua-lock-free tie-dense = reference" `Quick
            (run_tie_diff `Lock_free);
          Alcotest.test_case "rua-lock-based tie-dense = reference" `Quick
            (run_tie_diff `Lock_based);
          Alcotest.test_case "rua-lock-based disjoint cycles = reference"
            `Quick run_cycles;
        ] );
      ( "spec",
        [
          Alcotest.test_case "edf scenes" `Quick (run_spec `Edf);
          Alcotest.test_case "edf-pip scenes" `Quick (run_spec `Edf_pip);
          Alcotest.test_case "edf sequences" `Quick
            (run_incremental ~make:Rtlf_core.Edf.make ~expect:check_edf);
          Test_support.to_alcotest prop_edf_index_sort;
        ] );
      ( "ownership",
        [ Alcotest.test_case "one record per instance" `Quick test_same_record ] );
      ( "incremental",
        [
          Alcotest.test_case "rua-lock-free sequences = reference" `Quick
            (run_incremental ~make:Rtlf_core.Rua_lock_free.make
               ~expect:(fun ~msg ~now jobs got ->
                 check_same ~msg
                   ((Reference.rua_lock_free ()).Scheduler.decide ~now ~jobs
                      ~remaining)
                   got));
          Alcotest.test_case "rua-lock-based sequences = reference" `Quick
            run_lock_sequences;
          Alcotest.test_case "rua-lock-free fresh arrays = reference" `Quick
            run_warm_arrays;
          Alcotest.test_case "rua-lock-free reversed n=256 = reference" `Quick
            run_warm_reversed;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "pud order = Pud.sort" `Quick test_resort_pud;
          Alcotest.test_case "ecf order = heapsort" `Quick test_resort_ecf;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "rua-lock-free rebuild words" `Quick
            test_rebuild_alloc_budget;
          Alcotest.test_case "rua-lock-based decision words" `Quick
            test_lock_based_alloc_budget;
        ] );
    ]
