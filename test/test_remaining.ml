(* The simulator's remaining-demand function against a list-fold
   oracle: for every sync discipline, random flat and nested profiles,
   every cursor position and progress before, inside and past the
   current segment's cost, [Simulator.remaining_cost] must return the
   sum of nominal segment costs the oracle walks. *)

module Prng = Rtlf_engine.Prng
module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Job = Rtlf_model.Job
module Segment = Rtlf_model.Segment
module Sync = Rtlf_sim.Sync
module Simulator = Rtlf_sim.Simulator

(* --- oracle ------------------------------------------------------------- *)

(* The nominal CPU cost of one segment under [sync], from the model's
   definition: an access costs [Sync.nominal_access_cost]; a lock
   marker costs one lock-management overhead where locks exist and
   nothing where lock-free and ideal sharing skip it. *)
let cost sync = function
  | Segment.Compute s -> s
  | Segment.Access { work; _ } -> Sync.nominal_access_cost sync ~work
  | Segment.Lock _ | Segment.Unlock _ -> (
    match sync with
    | Sync.Lock_based { overhead } | Sync.Spin { overhead; _ } -> overhead
    | Sync.Lock_free _ | Sync.Ideal -> 0)

(* The profile after dropping [k] segments, folded from the head: what
   is left of the current segment (never negative) plus every later
   segment's cost. *)
let oracle sync task ~seg ~progress =
  let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
  match drop seg (Task.segments task) with
  | [] -> 0
  | head :: tail ->
    List.fold_left
      (fun acc s -> acc + cost sync s)
      (Int.max 0 (cost sync head - progress))
      tail

(* --- generators --------------------------------------------------------- *)

let n_objects = 4

let syncs g =
  let overhead () = Prng.int_in g ~lo:0 ~hi:50 in
  [
    Sync.Lock_free { overhead = overhead () };
    Sync.Lock_based { overhead = overhead () };
    Sync.Spin { overhead = overhead (); kind = Sync.Ticket };
    Sync.Spin { overhead = overhead (); kind = Sync.Mcs };
    Sync.Ideal;
  ]

let tuf = Tuf.step ~height:10.0 ~c:1_000_000
let arrival = Uam.periodic ~period:1_000_000

let accesses g =
  List.init (Prng.int g ~bound:6) (fun _ ->
      (Prng.int g ~bound:n_objects, Prng.int g ~bound:200))

(* A flat task: private compute with write and read accesses spread
   through it. *)
let flat g ~id =
  Task.make ~id ~tuf ~arrival ~exec:(Prng.int g ~bound:1_000)
    ~accesses:(accesses g) ~reads:(accesses g) ()

(* A nested task: compute and flat accesses, with some stretches
   wrapped in a held lock that spans further segments. *)
let nested g ~id =
  let compute () = Segment.Compute (Prng.int_in g ~lo:1 ~hi:300) in
  let access ~avoid =
    let obj = (avoid + 1 + Prng.int g ~bound:(n_objects - 1)) mod n_objects in
    Segment.access ~obj ~work:(Prng.int g ~bound:200)
      ~write:(Prng.bool g) ()
  in
  let block () =
    match Prng.int g ~bound:3 with
    | 0 -> [ compute () ]
    | 1 -> [ access ~avoid:(-1) ]
    | _ ->
      let held = Prng.int g ~bound:n_objects in
      [ Segment.Lock held; compute (); access ~avoid:held; Segment.Unlock held ]
  in
  let profile = List.concat (List.init (1 + Prng.int g ~bound:5) (fun _ -> block ())) in
  Task.make_nested ~id ~tuf ~arrival ~profile ()

(* Tasks with ids 0 .. n-1, listed in shuffled order: the cost table is
   indexed by task id, not by list position. *)
let task_set g make =
  let tasks = Array.init (1 + Prng.int g ~bound:5) (fun id -> make g ~id) in
  Prng.shuffle g tasks;
  Array.to_list tasks

(* --- property ----------------------------------------------------------- *)

(* Every cursor position of every task, including the end of the
   profile, at progress 0, strictly inside the current segment's cost,
   at that cost, and past it. *)
let check_set g tasks =
  List.iter
    (fun sync ->
      let remaining =
        Simulator.remaining_cost
          (Simulator.config ~tasks ~sync ~n_objects ~horizon:1 ())
      in
      List.iter
        (fun task ->
          let job = Job.create ~task ~jid:0 ~arrival:0 in
          let n = Array.length job.Job.profile in
          for seg = 0 to n do
            let head =
              if seg < n then cost sync job.Job.profile.(seg) else 0
            in
            let mid = if head > 1 then 1 + Prng.int g ~bound:(head - 1) else 0 in
            List.iter
              (fun progress ->
                job.Job.seg <- seg;
                job.Job.seg_progress <- progress;
                let want = oracle sync task ~seg ~progress in
                let got = remaining job in
                if got <> want then
                  Alcotest.failf
                    "%s, task %d (%d segments), cursor %d, progress %d: \
                     remaining %d, oracle %d"
                    (Sync.name sync) task.Task.id n seg progress got want)
              [ 0; mid; head; head + 1 + Prng.int g ~bound:100 ]
          done)
        tasks)
    (syncs g)

let test_flat () =
  let g = Test_support.prng () in
  for _ = 1 to 300 do
    check_set g (task_set g flat)
  done

let test_nested () =
  let g = Test_support.prng () in
  for _ = 1 to 300 do
    check_set g (task_set g nested)
  done

(* The decider sees the same function the simulator runs with: a
   finished job has no demand left, whatever progress it records. *)
let test_finished () =
  let task = Task.make ~id:0 ~tuf ~arrival ~exec:90 ~accesses:[ (0, 5) ] () in
  let remaining =
    Simulator.remaining_cost
      (Simulator.config ~tasks:[ task ] ~sync:(Sync.Lock_free { overhead = 3 })
         ~horizon:1 ())
  in
  let job = Job.create ~task ~jid:0 ~arrival:0 in
  Alcotest.(check int) "fresh" (90 + 5 + 3) (remaining job);
  while not (Job.profile_done job) do
    Job.finish_segment job
  done;
  Alcotest.(check int) "finished" 0 (remaining job)

let () =
  Test_support.run "remaining"
    [
      ( "remaining_cost",
        [
          Alcotest.test_case "flat profiles vs list fold" `Quick test_flat;
          Alcotest.test_case "nested profiles vs list fold" `Quick test_nested;
          Alcotest.test_case "finished job" `Quick test_finished;
        ] );
    ]
