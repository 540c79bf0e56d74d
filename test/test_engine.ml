(* Engine substrate tests: event queue ordering/stability, PRNG
   determinism and ranges, statistics. *)

module Event_queue = Rtlf_engine.Event_queue
module Prng = Rtlf_engine.Prng
module Stats = Rtlf_engine.Stats

(* --- event queue ------------------------------------------------------ *)

(* Pop every event, in dequeue order. *)
let drain q =
  let rec loop acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some x -> loop (x :: acc)
  in
  loop []

let test_eq_empty () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check int) "length 0" 0 (Event_queue.length q);
  Alcotest.(check bool) "pop none" true (Event_queue.pop q = None);
  Alcotest.(check bool) "peek none" true (Event_queue.peek q = None);
  Alcotest.(check int) "min_time max_int" max_int (Event_queue.min_time q)

let test_eq_ordering () =
  let q = Event_queue.create () in
  List.iter
    (fun t -> Event_queue.add q ~time:t t)
    [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ];
  let order = List.map fst (drain q) in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] order

let test_eq_fifo_ties () =
  let q = Event_queue.create () in
  List.iteri (fun i label -> Event_queue.add q ~time:(i mod 2) label)
    [ "a"; "b"; "c"; "d"; "e"; "f" ];
  (* time 0: a, c, e; time 1: b, d, f — insertion order preserved. *)
  let order = List.map snd (drain q) in
  Alcotest.(check (list string)) "stable ties"
    [ "a"; "c"; "e"; "b"; "d"; "f" ] order

let test_eq_peek_pop_consistency () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3 "x";
  Event_queue.add q ~time:1 "y";
  Alcotest.(check bool) "peek min" true (Event_queue.peek q = Some (1, "y"));
  Alcotest.(check int) "min_time" 1 (Event_queue.min_time q);
  Alcotest.(check bool) "pop min" true (Event_queue.pop q = Some (1, "y"));
  Alcotest.(check bool) "next" true (Event_queue.pop q = Some (3, "x"))

let test_eq_to_list_nondestructive () =
  let q = Event_queue.create () in
  List.iter (fun t -> Event_queue.add q ~time:t t) [ 3; 1; 2 ];
  let snapshot = Event_queue.to_list q in
  Alcotest.(check (list int)) "snapshot sorted" [ 1; 2; 3 ]
    (List.map fst snapshot);
  Alcotest.(check int) "queue intact" 3 (Event_queue.length q)

let test_eq_grow () =
  (* Force several capacity doublings. *)
  let q = Event_queue.create () in
  for i = 999 downto 0 do
    Event_queue.add q ~time:i i
  done;
  Alcotest.(check int) "all inserted" 1000 (Event_queue.length q);
  let order = List.map fst (drain q) in
  Alcotest.(check (list int)) "sorted after growth"
    (List.init 1000 (fun i -> i))
    order

(* Liveness regression: the heap must never keep more payloads
   reachable than [length] reports. Weak pointers observe whether the
   GC can collect popped payloads — before the fix, [pop] left the
   popped cell parked in [heap.(size)]. *)
let live_payloads (w : int ref Weak.t) =
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr live
  done;
  !live

let test_eq_pop_releases_payloads () =
  let n = 64 in
  let q = Event_queue.create () in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set w i (Some payload);
    Event_queue.add q ~time:i payload
  done;
  for _ = 1 to n / 2 do
    ignore (Event_queue.pop q)
  done;
  Alcotest.(check int) "popped payloads are collectable" (n / 2)
    (live_payloads w);
  Alcotest.(check int) "length agrees" (n / 2) (Event_queue.length q)

let prop_eq_sorted =
  QCheck.Test.make ~name:"drain is sorted and complete" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.add q ~time:t t) times;
      let order = List.map fst (drain q) in
      order = List.sort compare times)

(* [pop_payload] after [min_time] yields exactly the (time, event)
   sequence [pop] does, ties included. *)
let prop_eq_pop_payload_order =
  QCheck.Test.make ~name:"min_time + pop_payload = pop" ~count:200
    QCheck.(list (int_bound 50))
    (fun times ->
      let a = Event_queue.create () and b = Event_queue.create () in
      List.iteri
        (fun i t ->
          Event_queue.add a ~time:t i;
          Event_queue.add b ~time:t i)
        times;
      let rec agree () =
        match Event_queue.pop a with
        | None -> Event_queue.is_empty b
        | Some (t, e) ->
          let t' = Event_queue.min_time b in
          let e' = Event_queue.pop_payload b in
          t = t' && e = e' && agree ()
      in
      agree ())

let test_eq_pop_payload_empty () =
  let q : int Event_queue.t = Event_queue.create () in
  Alcotest.check_raises "empty"
    (Invalid_argument "Event_queue.pop_payload: empty queue") (fun () ->
      ignore (Event_queue.pop_payload q))

(* The simulator pops one expiry per critical time, so the pop must not
   allocate: [pop]'s option and pair cost 5 words. *)
let test_eq_pop_payload_allocation () =
  let n = 1_000 in
  let q = Event_queue.create () in
  for i = 0 to n - 1 do
    Event_queue.add q ~time:((i * 7919) mod n) i
  done;
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    sum := !sum + Event_queue.pop_payload q
  done;
  let per_pop = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "every payload popped" (n * (n - 1) / 2) !sum;
  Alcotest.(check (float 0.0)) "minor words per pop" 0.0 per_pop

(* --- prng ------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_prng_split_independent () =
  let g = Prng.create ~seed:7 in
  let child = Prng.split g in
  let x = Prng.bits64 child and y = Prng.bits64 g in
  Alcotest.(check bool) "split decouples" true (x <> y)

let test_prng_copy () =
  let g = Prng.create ~seed:5 in
  ignore (Prng.bits64 g);
  let c = Prng.copy g in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 g)
    (Prng.bits64 c)

let test_prng_int_bounds () =
  let g = Prng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let v = Prng.int g ~bound:37 in
    if v < 0 || v >= 37 then Alcotest.failf "out of range: %d" v
  done

let test_prng_int_in () =
  let g = Prng.create ~seed:13 in
  for _ = 1 to 10_000 do
    let v = Prng.int_in g ~lo:(-5) ~hi:5 in
    if v < -5 || v > 5 then Alcotest.failf "out of range: %d" v
  done;
  (* Degenerate range. *)
  Alcotest.(check int) "singleton range" 42 (Prng.int_in g ~lo:42 ~hi:42)

let test_prng_float_bounds () =
  let g = Prng.create ~seed:17 in
  for _ = 1 to 10_000 do
    let v = Prng.float g ~bound:2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let test_prng_invalid_args () =
  let g = Prng.create ~seed:1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g ~bound:0));
  Alcotest.check_raises "hi < lo" (Invalid_argument "Prng.int_in: hi < lo")
    (fun () -> ignore (Prng.int_in g ~lo:2 ~hi:1));
  Alcotest.check_raises "empty choose"
    (Invalid_argument "Prng.choose: empty array") (fun () ->
      ignore (Prng.choose g [||]))

let test_prng_shuffle_permutes () =
  let g = Prng.create ~seed:19 in
  let arr = Array.init 50 (fun i -> i) in
  let orig = Array.copy arr in
  Prng.shuffle g arr;
  Alcotest.(check (list int)) "same multiset"
    (List.sort compare (Array.to_list orig))
    (List.sort compare (Array.to_list arr))

let test_prng_exponential_positive () =
  let g = Prng.create ~seed:23 in
  for _ = 1 to 1000 do
    if Prng.exponential g ~mean:5.0 < 0.0 then Alcotest.fail "negative draw"
  done

(* SplitMix64 (Steele, Lea & Flood 2014) computed independently with
   unbounded integers: seed 42's first four outputs and seed -7's first
   two, as signed int64s, and seed 42's first four [int ~bound:1000]
   draws (output lsr 2, mod 1000). *)
let test_prng_reference_values () =
  let g = Prng.create ~seed:42 in
  List.iter
    (fun want -> Alcotest.(check int64) "seed 42" want (Prng.bits64 g))
    [
      -4767286540954276203L;
      2949826092126892291L;
      5139283748462763858L;
      6349198060258255764L;
    ];
  let g = Prng.create ~seed:(-7) in
  List.iter
    (fun want -> Alcotest.(check int64) "seed -7" want (Prng.bits64 g))
    [ 7790691224305936752L; 8829294814793142954L ];
  let g = Prng.create ~seed:42 in
  List.iter
    (fun want -> Alcotest.(check int) "int" want (Prng.int g ~bound:1000))
    [ 853; 72; 964; 941 ]

let test_prng_int_allocation () =
  let g = Prng.create ~seed:29 in
  let n = 10_000 in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    sum := !sum + Prng.int g ~bound:1000
  done;
  let per_draw = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool) "draws in range" true (!sum >= 0 && !sum < 1000 * n);
  Alcotest.(check (float 0.0)) "minor words per draw" 0.0 per_draw

let prop_prng_mean =
  QCheck.Test.make ~name:"uniform int mean is near centre" ~count:10
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let n = 20_000 in
      let sum = ref 0 in
      for _ = 1 to n do
        sum := !sum + Prng.int g ~bound:100
      done;
      let mean = float_of_int !sum /. float_of_int n in
      mean > 45.0 && mean < 54.0)

(* --- stats ------------------------------------------------------------ *)

let test_stats_empty () =
  let s = Stats.of_list [] in
  Alcotest.(check int) "n" 0 s.Stats.n;
  Alcotest.(check bool) "mean nan" true (Float.is_nan s.Stats.mean)

let test_stats_single () =
  let s = Stats.of_list [ 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 4.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "stddev" 0.0 s.Stats.stddev;
  Alcotest.(check (float 1e-9)) "min" 4.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max

let test_stats_known () =
  let s = Stats.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Stats.mean;
  (* Sample stddev with n-1 divisor: sqrt(32/7). *)
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (32.0 /. 7.0)) s.Stats.stddev;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.Stats.max

let test_stats_ci_shrinks () =
  let wide = Stats.of_list [ 1.0; 9.0 ] in
  let narrow = Stats.of_array (Array.make 200 5.0) in
  Alcotest.(check bool) "more samples, tighter ci" true
    (narrow.Stats.ci95 < wide.Stats.ci95)

let test_stats_streaming_matches_batch () =
  let xs = List.init 500 (fun i -> float_of_int (i * i) /. 37.0) in
  let acc = Stats.create () in
  List.iter (Stats.add acc) xs;
  let a = Stats.summary acc and b = Stats.of_list xs in
  Alcotest.(check (float 1e-6)) "mean" b.Stats.mean a.Stats.mean;
  Alcotest.(check (float 1e-6)) "stddev" b.Stats.stddev a.Stats.stddev

let test_percentile () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  Alcotest.(check (float 1e-9)) "median" 50.0 (Stats.percentile xs ~p:50.0);
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile xs ~p:0.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile xs ~p:100.0);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Stats.percentile xs ~p:95.0)

let test_percentile_interpolates () =
  let xs = [| 10.0; 20.0 |] in
  Alcotest.(check (float 1e-9)) "midpoint" 15.0 (Stats.percentile xs ~p:50.0)

let test_percentile_errors () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] ~p:50.0));
  Alcotest.check_raises "range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1.0 |] ~p:150.0))

let test_percentile_ignores_nan () =
  let clean = [| 3.0; 1.0; 2.0; 4.0 |] in
  let tainted = [| nan; 3.0; 1.0; nan; 2.0; 4.0; nan |] in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%g matches NaN-free data" p)
        (Stats.percentile clean ~p)
        (Stats.percentile tainted ~p))
    [ 0.0; 25.0; 50.0; 90.0; 100.0 ]

let test_percentile_all_nan () =
  Alcotest.check_raises "all NaN"
    (Invalid_argument "Stats.percentile: no non-NaN samples") (fun () ->
      ignore (Stats.percentile [| nan; nan |] ~p:50.0))

let test_percentile_opt_nan () =
  Alcotest.(check (option (float 1e-9))) "all NaN is None" None
    (Stats.percentile_opt [| nan; nan |] ~p:50.0);
  Alcotest.(check (option (float 1e-9))) "empty is None" None
    (Stats.percentile_opt [||] ~p:50.0);
  Alcotest.(check (option (float 1e-9))) "NaNs dropped" (Some 2.0)
    (Stats.percentile_opt [| nan; 1.0; 2.0; 3.0 |] ~p:50.0)

let test_histogram_ignores_nan () =
  let clean = Stats.histogram ~bins:4 [| 1.0; 2.0; 3.0; 4.0 |] in
  let tainted = Stats.histogram ~bins:4 [| nan; 1.0; 2.0; nan; 3.0; 4.0 |] in
  Alcotest.(check int) "n counts non-NaN only" clean.Stats.n tainted.Stats.n;
  Alcotest.(check (float 1e-9)) "p50" clean.Stats.p50 tainted.Stats.p50;
  Alcotest.(check (float 1e-9)) "p99" clean.Stats.p99 tainted.Stats.p99;
  Alcotest.(check (list int)) "buckets"
    (Array.to_list clean.Stats.buckets)
    (Array.to_list tainted.Stats.buckets);
  let empty = Stats.histogram [| nan; nan |] in
  Alcotest.(check int) "all-NaN input is the empty histogram" 0
    empty.Stats.n

(* The simulator adds one scheduler charge per invocation, almost
   always a value it has seen before: that add must not allocate. The
   table is filled first, so the loop neither inserts nor grows. *)
let test_counts_add_allocation () =
  let n = 10_000 in
  let c = Stats.Counts.create () in
  for v = -50 to 49 do
    Stats.Counts.add c (v * 1_000)
  done;
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    Stats.Counts.add c (((i mod 100) - 50) * 1_000)
  done;
  let per_add = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "every add counted" (n + 100) (Stats.Counts.count c);
  Alcotest.(check (float 0.0)) "minor words per add" 0.0 per_add

let test_mean_helper () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check bool) "empty nan" true (Float.is_nan (Stats.mean []))

let prop_stats_bounds =
  QCheck.Test.make ~name:"mean within [min, max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.of_list xs in
      s.Stats.min <= s.Stats.mean +. 1e-9
      && s.Stats.mean <= s.Stats.max +. 1e-9)

let () =
  Test_support.run "engine"
    [
      ( "event_queue",
        [
          Alcotest.test_case "empty behaviour" `Quick test_eq_empty;
          Alcotest.test_case "dequeues in time order" `Quick test_eq_ordering;
          Alcotest.test_case "FIFO on equal times" `Quick test_eq_fifo_ties;
          Alcotest.test_case "peek/pop consistent" `Quick
            test_eq_peek_pop_consistency;
          Alcotest.test_case "to_list non-destructive" `Quick
            test_eq_to_list_nondestructive;
          Alcotest.test_case "growth preserves order" `Quick test_eq_grow;
          Alcotest.test_case "pop releases payloads" `Quick
            test_eq_pop_releases_payloads;
          Alcotest.test_case "pop_payload on empty" `Quick
            test_eq_pop_payload_empty;
          Alcotest.test_case "pop_payload allocates nothing" `Quick
            test_eq_pop_payload_allocation;
          Test_support.to_alcotest prop_eq_sorted;
          Test_support.to_alcotest prop_eq_pop_payload_order;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_prng_deterministic;
          Alcotest.test_case "seeds give different streams" `Quick
            test_prng_seeds_differ;
          Alcotest.test_case "split decouples" `Quick
            test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "int in bounds (no 63-bit wrap)" `Quick
            test_prng_int_bounds;
          Alcotest.test_case "int_in inclusive range" `Quick test_prng_int_in;
          Alcotest.test_case "float in bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "invalid arguments" `Quick test_prng_invalid_args;
          Alcotest.test_case "shuffle permutes" `Quick
            test_prng_shuffle_permutes;
          Alcotest.test_case "exponential positive" `Quick
            test_prng_exponential_positive;
          Alcotest.test_case "SplitMix64 reference values" `Quick
            test_prng_reference_values;
          Alcotest.test_case "int allocates nothing" `Quick
            test_prng_int_allocation;
          Test_support.to_alcotest prop_prng_mean;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty summary" `Quick test_stats_empty;
          Alcotest.test_case "single sample" `Quick test_stats_single;
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "ci shrinks with n" `Quick test_stats_ci_shrinks;
          Alcotest.test_case "streaming = batch" `Quick
            test_stats_streaming_matches_batch;
          Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "percentile interpolation" `Quick
            test_percentile_interpolates;
          Alcotest.test_case "percentile errors" `Quick test_percentile_errors;
          Alcotest.test_case "percentile ignores NaN" `Quick
            test_percentile_ignores_nan;
          Alcotest.test_case "percentile rejects all-NaN" `Quick
            test_percentile_all_nan;
          Alcotest.test_case "percentile_opt on NaN input" `Quick
            test_percentile_opt_nan;
          Alcotest.test_case "histogram ignores NaN" `Quick
            test_histogram_ignores_nan;
          Alcotest.test_case "mean helper" `Quick test_mean_helper;
          Alcotest.test_case "counts add of a present value allocates nothing"
            `Quick test_counts_add_allocation;
          Test_support.to_alcotest prop_stats_bounds;
        ] );
    ]
