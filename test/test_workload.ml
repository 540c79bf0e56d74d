(* Workload-generator tests: load targeting, TUF classes, determinism,
   validation. *)

module Workload = Rtlf_workload.Workload
module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam

let spec = Workload.default

let test_counts () =
  let tasks = Workload.make spec in
  Alcotest.(check int) "n tasks" spec.Workload.n_tasks (List.length tasks);
  List.iteri
    (fun i t -> Alcotest.(check int) "dense ids" i t.Task.id)
    tasks

let test_load_targeting () =
  List.iter
    (fun target_al ->
      let tasks = Workload.make { spec with Workload.target_al } in
      let al = Workload.actual_load tasks in
      if Float.abs (al -. target_al) > 0.02 *. target_al then
        Alcotest.failf "AL %.3f too far from target %.3f" al target_al)
    [ 0.1; 0.4; 0.8; 1.1; 2.0 ]

let test_c_le_w () =
  let tasks = Workload.make { spec with Workload.window_factor = 1.3 } in
  List.iter
    (fun t ->
      Alcotest.(check bool) "C <= W" true
        (Task.critical_time t <= t.Task.arrival.Uam.w))
    tasks

let test_step_class () =
  let tasks = Workload.make { spec with Workload.tuf_class = Workload.Step_only } in
  List.iter
    (fun t ->
      match t.Task.tuf with
      | Tuf.Step _ -> ()
      | _ -> Alcotest.fail "expected step TUF")
    tasks

let test_heterogeneous_class_has_all_shapes () =
  let tasks =
    Workload.make
      { spec with Workload.tuf_class = Workload.Heterogeneous; n_tasks = 9 }
  in
  let has pred = List.exists (fun t -> pred t.Task.tuf) tasks in
  Alcotest.(check bool) "has step" true
    (has (function Tuf.Step _ -> true | _ -> false));
  Alcotest.(check bool) "has linear" true
    (has (function Tuf.Linear _ -> true | _ -> false));
  Alcotest.(check bool) "has parabolic" true
    (has (function Tuf.Parabolic _ -> true | _ -> false))

let test_accesses_round_robin () =
  let tasks =
    Workload.make
      { spec with Workload.accesses_per_job = 4; n_objects = 3 }
  in
  List.iter
    (fun t ->
      Alcotest.(check int) "m" 4 (Task.num_accesses t);
      List.iter
        (fun (obj, work) ->
          Alcotest.(check bool) "object in range" true (obj >= 0 && obj < 3);
          Alcotest.(check int) "work" spec.Workload.access_work work)
        t.Task.accesses)
    tasks

let test_deterministic_in_seed () =
  let a = Workload.make spec and b = Workload.make spec in
  List.iter2
    (fun x y ->
      Alcotest.(check int) "same exec" x.Task.exec y.Task.exec;
      Alcotest.(check int) "same window" x.Task.arrival.Uam.w
        y.Task.arrival.Uam.w)
    a b;
  let c = Workload.make { spec with Workload.seed = 999 } in
  Alcotest.(check bool) "different seed differs" true
    (List.exists2 (fun x y -> x.Task.exec <> y.Task.exec) a c)

let test_burst_propagates () =
  let tasks = Workload.make { spec with Workload.burst = 4 } in
  List.iter
    (fun t -> Alcotest.(check int) "a_i" 4 t.Task.arrival.Uam.a)
    tasks

let test_validation () =
  let inv name s =
    Alcotest.check_raises name (Invalid_argument s) (fun () ->
        ())
  in
  ignore inv;
  let expect_invalid name bad =
    match Workload.make bad with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  expect_invalid "no tasks" { spec with Workload.n_tasks = 0 };
  expect_invalid "zero load" { spec with Workload.target_al = 0.0 };
  expect_invalid "nan load" { spec with Workload.target_al = Float.nan };
  expect_invalid "infinite load"
    { spec with Workload.target_al = Float.infinity };
  expect_invalid "negative infinite load"
    { spec with Workload.target_al = Float.neg_infinity };
  expect_invalid "nan window" { spec with Workload.window_factor = Float.nan };
  expect_invalid "zero exec" { spec with Workload.mean_exec = 0 };
  expect_invalid "window < 1"
    { spec with Workload.window_factor = 0.5 };
  expect_invalid "accesses without objects"
    { spec with Workload.n_objects = 0; accesses_per_job = 2 };
  expect_invalid "burst 0" { spec with Workload.burst = 0 };
  (* The CLI copies --objects into both fields; the error names the
     objects, not the accesses. *)
  (match
     Workload.make
       { spec with Workload.n_objects = -1; accesses_per_job = -1 }
   with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "negative objects named"
      "Workload: negative n_objects (got -1)" msg
  | _ -> Alcotest.fail "negative objects accepted");
  (* A finite but huge load would put critical times below 1 ns. *)
  match Workload.make { spec with Workload.target_al = 1e300 } with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "huge-load message names the load" true
      (String.starts_with ~prefix:"Workload: target_al 1e+300 " msg)
  | _ -> Alcotest.fail "huge load accepted"

let test_exec_diversity () =
  let tasks = Workload.make { spec with Workload.n_tasks = 20 } in
  let execs = List.map (fun t -> t.Task.exec) tasks in
  let mn = List.fold_left min max_int execs in
  let mx = List.fold_left max 0 execs in
  Alcotest.(check bool) "execution times vary" true (mx > mn);
  (* Within the documented +/-40% envelope. *)
  Alcotest.(check bool) "within envelope" true
    (mn >= int_of_float (0.55 *. float_of_int spec.Workload.mean_exec)
    && mx <= int_of_float (1.45 *. float_of_int spec.Workload.mean_exec))

let prop_load_accuracy =
  QCheck.Test.make ~name:"actual load tracks target" ~count:100
    QCheck.(pair (int_range 1 100) (int_range 2 20))
    (fun (alx10, n_tasks) ->
      let target_al = float_of_int alx10 /. 10.0 in
      let tasks =
        Workload.make { spec with Workload.target_al; n_tasks }
      in
      Float.abs (Workload.actual_load tasks -. target_al)
      <= 0.05 *. target_al)

let () =
  Test_support.run "workload"
    [
      ( "generation",
        [
          Alcotest.test_case "counts and ids" `Quick test_counts;
          Alcotest.test_case "load targeting" `Quick test_load_targeting;
          Alcotest.test_case "C <= W" `Quick test_c_le_w;
          Alcotest.test_case "step class" `Quick test_step_class;
          Alcotest.test_case "heterogeneous shapes" `Quick
            test_heterogeneous_class_has_all_shapes;
          Alcotest.test_case "round-robin accesses" `Quick
            test_accesses_round_robin;
          Alcotest.test_case "deterministic in seed" `Quick
            test_deterministic_in_seed;
          Alcotest.test_case "burst propagates" `Quick test_burst_propagates;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "exec diversity" `Quick test_exec_diversity;
          Test_support.to_alcotest prop_load_accuracy;
        ] );
    ]
