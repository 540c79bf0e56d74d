(* Task-model tests: segments, tasks, jobs, resources. *)

module Segment = Rtlf_model.Segment
module Task = Rtlf_model.Task
module Job = Rtlf_model.Job
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Resource = Rtlf_model.Resource

(* --- segments ------------------------------------------------------------ *)

let test_interleave_shape () =
  let segs =
    Segment.interleave ~compute:90 ~accesses:[ (0, 5); (1, 7) ] ()
  in
  match segs with
  | [ Segment.Compute 30; Segment.Access { obj = 0; work = 5; write = true };
      Segment.Compute 30; Segment.Access { obj = 1; work = 7; write = true };
      Segment.Compute 30 ] ->
    ()
  | _ ->
    Alcotest.failf "unexpected shape: %s"
      (String.concat "; "
         (List.map (Format.asprintf "%a" Segment.pp) segs))

let test_interleave_remainder_to_first () =
  let segs = Segment.interleave ~compute:100 ~accesses:[ (0, 1); (1, 1) ] () in
  match segs with
  | Segment.Compute first :: _ ->
    (* 100 = 33+33+33 rem 1; first slice gets the remainder. *)
    Alcotest.(check int) "first slice" 34 first;
    Alcotest.(check int) "total preserved" 102 (Segment.total_span segs)
  | _ -> Alcotest.fail "expected leading compute"

let test_interleave_no_accesses () =
  Alcotest.(check bool) "single compute" true
    (Segment.interleave ~compute:50 ~accesses:[] () = [ Segment.Compute 50 ])

let test_interleave_zero_compute () =
  let segs = Segment.interleave ~compute:0 ~accesses:[ (0, 3) ] () in
  Alcotest.(check bool) "access only" true
    (segs = [ Segment.Access { obj = 0; work = 3; write = true } ])

let test_interleave_validation () =
  Alcotest.check_raises "negative compute"
    (Invalid_argument "Segment.interleave: negative compute") (fun () ->
      ignore (Segment.interleave ~compute:(-1) ~accesses:[] ()));
  Alcotest.check_raises "negative work"
    (Invalid_argument "Segment.interleave: negative work") (fun () ->
      ignore (Segment.interleave ~compute:10 ~accesses:[ (0, -1) ] ()))

let test_segment_counts () =
  let segs = Segment.interleave ~compute:30 ~accesses:[ (0, 1); (2, 1) ] () in
  Alcotest.(check int) "accesses" 2 (Segment.count_accesses segs);
  Alcotest.(check int) "span" 32 (Segment.total_span segs)

let prop_interleave_conserves =
  QCheck.Test.make ~name:"interleave conserves compute and accesses"
    ~count:300
    QCheck.(
      pair (int_range 0 10_000)
        (list_of_size (Gen.int_range 0 10)
           (pair (int_range 0 5) (int_range 0 100))))
    (fun (compute, accesses) ->
      let segs = Segment.interleave ~compute ~accesses () in
      let access_work =
        List.fold_left (fun acc (_, w) -> acc + w) 0 accesses
      in
      Segment.total_span segs = compute + access_work
      && Segment.count_accesses segs = List.length accesses)

(* --- tasks ----------------------------------------------------------------- *)

let mk_task ?(c = 1000) ?(w = 2000) ?(exec = 300) ?(accesses = []) () =
  Task.make ~id:0
    ~tuf:(Tuf.step ~height:5.0 ~c)
    ~arrival:(Uam.make ~l:1 ~a:2 ~w)
    ~exec ~accesses ()

let test_task_basics () =
  let t = mk_task ~accesses:[ (0, 10); (1, 20) ] () in
  Alcotest.(check int) "critical time" 1000 (Task.critical_time t);
  Alcotest.(check int) "m" 2 (Task.num_accesses t);
  Alcotest.(check int) "total work" 330 (Task.total_work t);
  Alcotest.(check (float 1e-9)) "utilization" 0.3 (Task.utilization t)

let test_task_c_le_w_enforced () =
  Alcotest.check_raises "C > W rejected"
    (Invalid_argument "Task.make: critical time exceeds arrival window (C <= W)")
    (fun () -> ignore (mk_task ~c:3000 ~w:2000 ()))

let test_task_default_name () =
  let t = mk_task () in
  Alcotest.(check string) "name" "T0" t.Task.name

let test_approximate_load () =
  let t1 = mk_task () in
  (* exec 300 / c 1000 each -> AL = 0.6 for two copies. *)
  Alcotest.(check (float 1e-9)) "AL" 0.6
    (Task.approximate_load [ t1; t1 ])

(* --- jobs ------------------------------------------------------------------- *)

let test_job_lifecycle () =
  let t = mk_task ~exec:100 ~accesses:[ (0, 10) ] () in
  let j = Job.create ~task:t ~jid:7 ~arrival:5000 in
  Alcotest.(check int) "absolute ct" 6000 (Job.absolute_critical_time j);
  Alcotest.(check int) "remaining" 110 (Job.remaining_nominal j);
  Alcotest.(check int) "remaining accesses" 1 (Job.remaining_accesses j);
  Alcotest.(check bool) "live" true (Job.is_live j);
  Alcotest.(check bool) "runnable" true (Job.is_runnable j);
  (* Execute the first compute slice partially. *)
  j.Job.seg_progress <- 30;
  Alcotest.(check int) "partial progress" 80 (Job.remaining_nominal j);
  j.Job.seg_progress <- 50;
  Job.finish_segment j;
  Alcotest.(check int) "after first slice" 60 (Job.remaining_nominal j);
  Alcotest.(check bool) "head is access" true
    (match Job.current_segment j with
    | Some (Rtlf_model.Segment.Access _) -> true
    | _ -> false)

let test_job_states () =
  let t = mk_task () in
  let j = Job.create ~task:t ~jid:0 ~arrival:0 in
  j.Job.state <- Job.Blocked 3;
  Alcotest.(check bool) "blocked live" true (Job.is_live j);
  Alcotest.(check bool) "blocked not runnable" false (Job.is_runnable j);
  j.Job.state <- Job.Completed;
  Alcotest.(check bool) "completed not live" false (Job.is_live j);
  j.Job.state <- Job.Aborted;
  Alcotest.(check bool) "aborted not live" false (Job.is_live j)

let test_job_utility_and_sojourn () =
  let t = mk_task ~c:1000 () in
  let j = Job.create ~task:t ~jid:0 ~arrival:100 in
  Alcotest.(check (float 1e-9)) "utility before ct" 5.0
    (Job.utility_at j ~now:1099);
  Alcotest.(check (float 1e-9)) "utility at ct" 0.0
    (Job.utility_at j ~now:1100);
  Alcotest.(check bool) "no sojourn yet" true (Job.sojourn j = None);
  j.Job.completion <- 700;
  Alcotest.(check bool) "sojourn" true (Job.sojourn j = Some 600)

let test_job_restart_access () =
  let t = mk_task ~exec:0 ~accesses:[ (0, 10) ] () in
  let j = Job.create ~task:t ~jid:0 ~arrival:0 in
  j.Job.seg_progress <- 7;
  j.Job.attempt_snapshot <- 3;
  Job.restart_access j;
  Alcotest.(check int) "progress reset" 0 j.Job.seg_progress;
  Alcotest.(check bool) "snapshot cleared" true
    (j.Job.attempt_snapshot = -1);
  Alcotest.(check int) "retry counted" 1 j.Job.retries

let test_job_finish_segment_empty () =
  let t = mk_task ~exec:10 () in
  let j = Job.create ~task:t ~jid:0 ~arrival:0 in
  Job.finish_segment j;
  Alcotest.check_raises "no segment"
    (Invalid_argument "Job.finish_segment: no segment remaining") (fun () ->
      Job.finish_segment j)

(* --- resources ---------------------------------------------------------------- *)

let test_resource_versions () =
  let r = Resource.create ~n:3 in
  Alcotest.(check int) "count" 3 (Resource.count r);
  Alcotest.(check int) "initial version" 0 (Resource.version r 1);
  Resource.bump r 1;
  Resource.bump r 1;
  Alcotest.(check int) "bumped" 2 (Resource.version r 1);
  Alcotest.(check int) "others untouched" 0 (Resource.version r 0)

let test_resource_range_check () =
  let r = Resource.create ~n:2 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Resource: object 2 out of range") (fun () ->
      ignore (Resource.version r 2));
  Alcotest.check_raises "negative"
    (Invalid_argument "Resource: object -1 out of range") (fun () ->
      Resource.bump r (-1))

let () =
  Test_support.run "model"
    [
      ( "segments",
        [
          Alcotest.test_case "interleave shape" `Quick test_interleave_shape;
          Alcotest.test_case "remainder to first slice" `Quick
            test_interleave_remainder_to_first;
          Alcotest.test_case "no accesses" `Quick test_interleave_no_accesses;
          Alcotest.test_case "zero compute" `Quick test_interleave_zero_compute;
          Alcotest.test_case "validation" `Quick test_interleave_validation;
          Alcotest.test_case "counts" `Quick test_segment_counts;
          Test_support.to_alcotest prop_interleave_conserves;
        ] );
      ( "tasks",
        [
          Alcotest.test_case "basics" `Quick test_task_basics;
          Alcotest.test_case "C <= W enforced" `Quick test_task_c_le_w_enforced;
          Alcotest.test_case "default name" `Quick test_task_default_name;
          Alcotest.test_case "approximate load" `Quick test_approximate_load;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "lifecycle" `Quick test_job_lifecycle;
          Alcotest.test_case "states" `Quick test_job_states;
          Alcotest.test_case "utility and sojourn" `Quick
            test_job_utility_and_sojourn;
          Alcotest.test_case "restart access" `Quick test_job_restart_access;
          Alcotest.test_case "finish_segment on empty" `Quick
            test_job_finish_segment_empty;
        ] );
      ( "resources",
        [
          Alcotest.test_case "versions and counters" `Quick
            test_resource_versions;
          Alcotest.test_case "range checks" `Quick test_resource_range_check;
        ] );
    ]
