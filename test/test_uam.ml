(* UAM arrival-model tests: constraints, generator/validator agreement,
   special cases, window-counting bounds. *)

module Uam = Rtlf_model.Uam
module Prng = Rtlf_engine.Prng

let gen law ~seed ~horizon =
  Uam.generate law (Prng.create ~seed) ~start:0 ~horizon

(* --- construction ------------------------------------------------------- *)

let test_make_validation () =
  let inv name msg f = Alcotest.check_raises name (Invalid_argument msg) f in
  inv "w=0" "Uam.make: w must be positive" (fun () ->
      ignore (Uam.make ~l:1 ~a:1 ~w:0));
  inv "a=0" "Uam.make: a must be at least 1" (fun () ->
      ignore (Uam.make ~l:0 ~a:0 ~w:10));
  inv "l>a" "Uam.make: need 0 <= l <= a" (fun () ->
      ignore (Uam.make ~l:3 ~a:2 ~w:10));
  inv "l<0" "Uam.make: need 0 <= l <= a" (fun () ->
      ignore (Uam.make ~l:(-1) ~a:2 ~w:10))

let test_periodic_is_special_case () =
  let law = Uam.periodic ~period:500 in
  Alcotest.(check int) "l" 1 law.Uam.l;
  Alcotest.(check int) "a" 1 law.Uam.a;
  Alcotest.(check int) "w" 500 law.Uam.w

(* --- generator ----------------------------------------------------------- *)

let test_periodic_trace_is_periodic () =
  let law = Uam.periodic ~period:1000 in
  let trace = gen law ~seed:3 ~horizon:50_000 in
  (match trace with
  | [] | [ _ ] -> Alcotest.fail "expected several arrivals"
  | first :: _ ->
    Alcotest.(check bool) "first within one window" true (first < 1000));
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b - a) :: gaps rest
    | _ -> []
  in
  List.iter
    (fun g -> Alcotest.(check int) "gap = period" 1000 g)
    (gaps trace)

let test_generator_satisfies_validator () =
  List.iter
    (fun (l, a, w) ->
      let law = Uam.make ~l ~a ~w in
      List.iter
        (fun seed ->
          let trace = gen law ~seed ~horizon:(w * 100) in
          match Uam.validate law trace with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "law <%d,%d,%d> seed %d: %s" l a w seed msg)
        [ 1; 2; 3; 4; 5 ])
    [ (1, 1, 1000); (1, 2, 1000); (1, 3, 500); (1, 5, 2000); (2, 4, 1000) ]

let test_generator_nonempty_and_in_horizon () =
  let law = Uam.bursty ~a:3 ~w:1000 in
  let trace = gen law ~seed:9 ~horizon:10_000 in
  Alcotest.(check bool) "nonempty" true (trace <> []);
  List.iter
    (fun t ->
      if t < 0 || t >= 10_000 then Alcotest.failf "out of horizon: %d" t)
    trace

let test_generator_allows_simultaneous () =
  (* With a generous burst, simultaneous (equal-time) arrivals must be
     possible across seeds. *)
  let law = Uam.bursty ~a:5 ~w:100 in
  let found = ref false in
  for seed = 1 to 30 do
    let trace = gen law ~seed ~horizon:10_000 in
    let rec has_dup = function
      | a :: (b :: _ as rest) -> a = b || has_dup rest
      | _ -> false
    in
    if has_dup trace then found := true
  done;
  Alcotest.(check bool) "simultaneous arrivals occur" true !found

let test_worst_burst () =
  let law = Uam.bursty ~a:3 ~w:1000 in
  let trace = Uam.generate_worst_burst law ~start:0 ~horizon:3500 in
  Alcotest.(check (list int)) "bursts at window fronts"
    [ 0; 0; 0; 1000; 1000; 1000; 2000; 2000; 2000; 3000; 3000; 3000 ]
    trace;
  (match Uam.validate law trace with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "worst burst invalid: %s" msg)

(* --- validator ------------------------------------------------------------ *)

let test_validate_rejects_overdense () =
  let law = Uam.make ~l:1 ~a:2 ~w:1000 in
  (* Three arrivals within one window violate the max side. *)
  match Uam.validate law [ 0; 100; 200; 5000 ] with
  | Ok () -> Alcotest.fail "expected max-side violation"
  | Error msg ->
    Alcotest.(check bool) "mentions max side" true
      (String.length msg > 0)

let test_validate_rejects_sparse () =
  let law = Uam.make ~l:1 ~a:2 ~w:1000 in
  (* Gap of 5000 > w violates the min side. *)
  match Uam.validate law [ 0; 5000 ] with
  | Ok () -> Alcotest.fail "expected min-side violation"
  | Error _ -> ()

let test_validate_rejects_unsorted () =
  let law = Uam.periodic ~period:10 in
  match Uam.validate law [ 5; 3 ] with
  | Ok () -> Alcotest.fail "expected sort error"
  | Error msg -> Alcotest.(check string) "message" "trace is not sorted" msg

let test_validate_empty_and_singleton () =
  let law = Uam.bursty ~a:2 ~w:100 in
  Alcotest.(check bool) "empty ok" true (Uam.validate law [] = Ok ());
  Alcotest.(check bool) "singleton ok" true (Uam.validate law [ 42 ] = Ok ())

(* --- window-counting bounds ------------------------------------------------ *)

let test_max_arrivals_in () =
  let law = Uam.make ~l:1 ~a:2 ~w:1000 in
  (* a * (ceil(span/w) + 1) *)
  Alcotest.(check int) "span=w" 4 (Uam.max_arrivals_in law ~span:1000);
  Alcotest.(check int) "span=2.5w" 8 (Uam.max_arrivals_in law ~span:2500);
  Alcotest.(check int) "span < w" 4 (Uam.max_arrivals_in law ~span:500);
  Alcotest.(check int) "span 0" 2 (Uam.max_arrivals_in law ~span:0)

let test_min_arrivals_in () =
  let law = Uam.make ~l:2 ~a:3 ~w:1000 in
  Alcotest.(check int) "span=2w" 4 (Uam.min_arrivals_in law ~span:2000);
  Alcotest.(check int) "span<w" 0 (Uam.min_arrivals_in law ~span:999)

let prop_trace_within_count_bounds =
  (* Any generated trace's count over the whole horizon respects the
     window-counting bound. *)
  QCheck.Test.make ~name:"generated counts below max_arrivals_in" ~count:100
    QCheck.(triple (int_range 1 4) (int_range 100 5_000) (int_range 1 1000))
    (fun (a, w, seed) ->
      let law = Uam.make ~l:1 ~a ~w in
      let horizon = w * 20 in
      let trace = gen law ~seed ~horizon in
      List.length trace <= Uam.max_arrivals_in law ~span:horizon)

let prop_generated_valid =
  QCheck.Test.make ~name:"generate |> validate" ~count:200
    QCheck.(triple (int_range 1 5) (int_range 50 2_000) (int_range 1 10_000))
    (fun (a, w, seed) ->
      let law = Uam.make ~l:1 ~a ~w in
      let trace = gen law ~seed ~horizon:(w * 50) in
      Uam.validate law trace = Ok ())

(* --- lazy cursor ------------------------------------------------------ *)

(* An independent list-building implementation of the UAM draw
   policy: the oracle for both the cursor and [Uam.generate]. *)
let reference_generate (law : Uam.t) g ~start ~horizon =
  if horizon <= start then []
  else begin
    let hist = Array.make law.Uam.a start in
    let count = ref 0 in
    let nth_back k = hist.((!count - k) mod law.Uam.a) in
    let acc = ref [] in
    let last = ref start in
    let continue = ref true in
    while !continue do
      let lo =
        max !last
          (if !count >= law.Uam.a then nth_back law.Uam.a + law.Uam.w
           else start)
      in
      let hi_min =
        if law.Uam.l >= 1 && !count >= law.Uam.l then
          nth_back law.Uam.l + law.Uam.w
        else if !count = 0 then start + law.Uam.w - 1
        else max_int
      in
      if lo >= horizon then continue := false
      else begin
        let hi = min hi_min (horizon - 1) in
        if hi < lo then continue := false
        else begin
          let time = Prng.int_in g ~lo ~hi in
          acc := time :: !acc;
          hist.(!count mod law.Uam.a) <- time;
          last := time;
          incr count
        end
      end
    done;
    List.rev !acc
  end

let drain c =
  let rec go acc =
    let t = Uam.peek c in
    if t = max_int then List.rev acc
    else begin
      Uam.advance c;
      go (t :: acc)
    end
  in
  go []

let prop_cursor_matches_reference =
  QCheck.Test.make ~name:"drained cursor = generate = reference" ~count:500
    QCheck.(
      pair
        (triple (int_range 1 5) (int_range 0 2) (int_range 1 400))
        (triple (int_range 0 100_000) (int_range (-50) 300) (int_range (-500) 8_000)))
    (fun ((a, l_pick, w), (seed, start, span)) ->
      (* l = 0, l = a and an interior l (when a > 1). *)
      let l = match l_pick with 0 -> 0 | 1 -> a | _ -> (a + 1) / 2 in
      let law = Uam.make ~l ~a ~w in
      let horizon = start + span in
      let want = reference_generate law (Prng.create ~seed) ~start ~horizon in
      let drained =
        drain (Uam.cursor law (Prng.create ~seed) ~start ~horizon)
      in
      let generated = Uam.generate law (Prng.create ~seed) ~start ~horizon in
      drained = want && generated = want)

let test_cursor_exhausted () =
  let law = Uam.make ~l:1 ~a:2 ~w:100 in
  List.iter
    (fun horizon ->
      let c = Uam.cursor law (Prng.create ~seed:3) ~start:50 ~horizon in
      Alcotest.(check int) "empty when horizon <= start" max_int (Uam.peek c);
      Uam.advance c;
      Alcotest.(check int) "advance past the end is a no-op" max_int
        (Uam.peek c))
    [ 50; 10; -7 ]

(* Simultaneous events in a simulator run: arrivals are handled in
   (arrival time, task-list position) order, and an arrival precedes an
   expiry at the same instant. Four ⟨1,1,4⟩ tasks with C = W = 4 and
   jobs too long to finish: each job expires exactly when its task's
   next job arrives, and tasks share phases, so arrivals coincide
   across tasks and with expiries. *)
let test_simultaneous_event_order () =
  let module Task = Rtlf_model.Task in
  let module Simulator = Rtlf_sim.Simulator in
  let module Trace = Rtlf_sim.Trace in
  let c = 4 in
  let tasks =
    List.init 4 (fun id ->
        Task.make ~id
          ~tuf:(Rtlf_model.Tuf.step ~height:1.0 ~c)
          ~arrival:(Uam.make ~l:1 ~a:1 ~w:c)
          ~exec:100 ())
  in
  let coincident = ref 0 in
  List.iter
    (fun seed ->
      let res =
        Simulator.run
          (Simulator.config ~tasks ~sync:Rtlf_sim.Sync.Ideal
             ~sched:Simulator.Rua ~horizon:60 ~seed ~sched_base:0
             ~sched_per_op:0 ~trace:true ())
      in
      let arrival_of = Hashtbl.create 64 in
      let last = ref (min_int, min_int) in
      List.iter
        (fun { Trace.kind; _ } ->
          match kind with
          | Trace.Arrive (jid, task, at) ->
            if compare (at, task) !last < 0 then
              Alcotest.failf "seed %d: J%d (task %d, at %d) arrived out of order"
                seed jid task at;
            if fst !last = at then incr coincident;
            last := (at, task);
            Hashtbl.replace arrival_of jid at
          | Trace.Abort (jid, _) ->
            (* The expiry instant: every arrival due then is already in. *)
            let expiry = Hashtbl.find arrival_of jid + c in
            if fst !last < expiry then
              Alcotest.failf "seed %d: J%d expired at %d before an arrival then"
                seed jid expiry
          | _ -> ())
        (Trace.entries res.Simulator.trace);
      Alcotest.(check bool) "jobs expired" true (res.Simulator.aborted > 0))
    (List.init 10 (fun s -> s + 1));
  Alcotest.(check bool) "coincident arrivals exercised" true (!coincident > 0)

let () =
  Test_support.run "uam"
    [
      ( "construction",
        [
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "periodic special case" `Quick
            test_periodic_is_special_case;
        ] );
      ( "generator",
        [
          Alcotest.test_case "periodic trace" `Quick
            test_periodic_trace_is_periodic;
          Alcotest.test_case "generator satisfies validator" `Quick
            test_generator_satisfies_validator;
          Alcotest.test_case "in-horizon, nonempty" `Quick
            test_generator_nonempty_and_in_horizon;
          Alcotest.test_case "simultaneous arrivals possible" `Quick
            test_generator_allows_simultaneous;
          Alcotest.test_case "worst burst trace" `Quick test_worst_burst;
          Test_support.to_alcotest prop_generated_valid;
        ] );
      ( "cursor",
        [
          Test_support.to_alcotest prop_cursor_matches_reference;
          Alcotest.test_case "exhausted cursor" `Quick test_cursor_exhausted;
          Alcotest.test_case "simultaneous event order" `Quick
            test_simultaneous_event_order;
        ] );
      ( "validator",
        [
          Alcotest.test_case "rejects over-dense" `Quick
            test_validate_rejects_overdense;
          Alcotest.test_case "rejects sparse" `Quick test_validate_rejects_sparse;
          Alcotest.test_case "rejects unsorted" `Quick
            test_validate_rejects_unsorted;
          Alcotest.test_case "empty/singleton ok" `Quick
            test_validate_empty_and_singleton;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "max_arrivals_in" `Quick test_max_arrivals_in;
          Alcotest.test_case "min_arrivals_in" `Quick test_min_arrivals_in;
          Test_support.to_alcotest prop_trace_within_count_bounds;
        ] );
    ]
