(* Reference cross-checks for Engine.Stats percentiles and histograms:
   an independent brute-force oracle (list-based NaN filter + sort +
   closest-rank interpolation) must agree with the implementation on
   random data and on the awkward corners — NaN mixtures, infinities,
   singletons, all-equal arrays. *)

module Stats = Rtlf_engine.Stats

(* Brute-force oracle: same documented convention (drop NaNs, total
   Float.compare sort, rank = p/100 * (n-1), linear interpolation
   between closest ranks), built from scratch on lists. *)
let oracle_percentile (xs : float array) ~p =
  let kept =
    List.filter (fun x -> not (Float.is_nan x)) (Array.to_list xs)
  in
  match List.length kept with
  | 0 -> None
  | n ->
    let sorted = List.sort Float.compare kept in
    let nth i = List.nth sorted i in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then Some (nth lo)
    else
      let frac = rank -. float_of_int lo in
      Some (nth lo +. (frac *. (nth hi -. nth lo)))

let float_eq a b = (Float.is_nan a && Float.is_nan b) || a = b

let check_against_oracle xs ~p =
  let got = Stats.percentile_opt xs ~p in
  let want = oracle_percentile xs ~p in
  match (got, want) with
  | None, None -> ()
  | Some g, Some w when float_eq g w -> ()
  | _ ->
    Alcotest.failf "p%.2f of [%s]: impl %s, oracle %s" p
      (String.concat "; "
         (List.map (Printf.sprintf "%h") (Array.to_list xs)))
      (match got with None -> "None" | Some g -> Printf.sprintf "%h" g)
      (match want with None -> "None" | Some w -> Printf.sprintf "%h" w)

let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ]

let test_random_cross_check () =
  let g = Test_support.prng () in
  let module P = Rtlf_engine.Prng in
  for _ = 1 to 500 do
    let n = 1 + P.int g ~bound:40 in
    let xs =
      Array.init n (fun _ ->
          match P.int g ~bound:12 with
          | 0 -> Float.nan
          | 1 -> Float.infinity
          | 2 -> Float.neg_infinity
          | 3 -> 0.0
          | _ -> P.float_in g ~lo:(-1000.0) ~hi:1000.0)
    in
    List.iter (fun p -> check_against_oracle xs ~p) ps;
    check_against_oracle xs ~p:(P.float g ~bound:100.0)
  done

let test_singleton () =
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%.0f of singleton" p)
        7.5
        (Stats.percentile [| 7.5 |] ~p))
    ps

let test_all_equal () =
  let xs = Array.make 9 3.25 in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%.0f of all-equal" p)
        3.25 (Stats.percentile xs ~p))
    ps

let test_nan_handling () =
  (* NaNs are dropped, not sorted to an arbitrary end. *)
  let xs = [| Float.nan; 3.0; Float.nan; 1.0; 2.0 |] in
  Alcotest.(check (float 0.0)) "p0 skips NaN" 1.0 (Stats.percentile xs ~p:0.0);
  Alcotest.(check (float 0.0)) "p100 skips NaN" 3.0
    (Stats.percentile xs ~p:100.0);
  Alcotest.(check (float 0.0)) "p50 over non-NaN" 2.0
    (Stats.percentile xs ~p:50.0);
  Alcotest.(check bool) "all-NaN -> None" true
    (Stats.percentile_opt [| Float.nan; Float.nan |] ~p:50.0 = None);
  Alcotest.check_raises "all-NaN percentile raises"
    (Invalid_argument "Stats.percentile: no non-NaN samples") (fun () ->
      ignore (Stats.percentile [| Float.nan |] ~p:50.0))

let test_infinities () =
  let xs = [| Float.neg_infinity; 1.0; 2.0; Float.infinity |] in
  Alcotest.(check (float 0.0)) "p0 = -inf" Float.neg_infinity
    (Stats.percentile xs ~p:0.0);
  Alcotest.(check (float 0.0)) "p100 = inf" Float.infinity
    (Stats.percentile xs ~p:100.0);
  Alcotest.(check (float 0.0)) "median finite" 1.5
    (Stats.percentile xs ~p:50.0)

let test_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Stats.percentile [||] ~p:50.0));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1.0 |] ~p:101.0));
  Alcotest.check_raises "percentile_opt checks p too"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile_opt [| 1.0 |] ~p:(-1.0)))

let test_monotone_in_p () =
  let g = Test_support.prng () in
  let module P = Rtlf_engine.Prng in
  for _ = 1 to 100 do
    let xs =
      Array.init (1 + P.int g ~bound:30) (fun _ ->
          P.float_in g ~lo:(-50.0) ~hi:50.0)
    in
    let prev = ref Float.neg_infinity in
    List.iter
      (fun p ->
        let v = Stats.percentile xs ~p in
        if v < !prev then
          Alcotest.failf "percentile not monotone in p at p=%.1f" p;
        prev := v)
      ps
  done

(* --- histogram ------------------------------------------------------- *)

let oracle_mean kept =
  List.fold_left ( +. ) 0.0 kept /. float_of_int (List.length kept)

let check_histogram xs =
  let h = Stats.histogram xs in
  let kept =
    List.filter (fun x -> not (Float.is_nan x)) (Array.to_list xs)
  in
  match kept with
  | [] ->
    Alcotest.(check int) "empty histogram n" 0 h.Stats.n;
    Alcotest.(check int) "no buckets" 0 (Array.length h.Stats.buckets)
  | _ ->
    let sorted = List.sort Float.compare kept in
    Alcotest.(check int) "n counts non-NaN" (List.length kept) h.Stats.n;
    Alcotest.(check bool) "min" true (float_eq h.Stats.min (List.hd sorted));
    Alcotest.(check bool) "max" true
      (float_eq h.Stats.max (List.nth sorted (List.length sorted - 1)));
    List.iter
      (fun (p, got) ->
        match oracle_percentile xs ~p with
        | Some want ->
          if not (float_eq got want) then
            Alcotest.failf "histogram p%.0f: impl %h oracle %h" p got want
        | None -> Alcotest.fail "oracle lost samples")
      [ (50.0, h.Stats.p50); (90.0, h.Stats.p90); (99.0, h.Stats.p99) ];
    Alcotest.(check int) "bucket counts sum to n" h.Stats.n
      (Array.fold_left ( + ) 0 h.Stats.buckets);
    (* Finite data only: mean agrees with the brute-force mean. *)
    if List.for_all Float.is_finite kept then
      Alcotest.(check (float 1e-9)) "mean" (oracle_mean kept) h.Stats.mean

let test_histogram_random () =
  let g = Test_support.prng () in
  let module P = Rtlf_engine.Prng in
  for _ = 1 to 300 do
    let n = P.int g ~bound:50 in
    let xs =
      Array.init n (fun _ ->
          match P.int g ~bound:10 with
          | 0 -> Float.nan
          | _ -> P.float_in g ~lo:0.0 ~hi:100.0)
    in
    check_histogram xs
  done

let test_histogram_edges () =
  check_histogram [||];
  check_histogram [| Float.nan |];
  check_histogram [| 4.0 |];
  check_histogram (Array.make 7 4.0);
  check_histogram [| Float.nan; 4.0; Float.nan |];
  let h = Stats.histogram [| Float.nan; Float.nan |] in
  Alcotest.(check int) "all-NaN histogram is empty" 0 h.Stats.n;
  Alcotest.(check bool) "all-NaN p50 nan" true (Float.is_nan h.Stats.p50)

let test_histogram_matches_percentile () =
  let g = Test_support.prng () in
  let module P = Rtlf_engine.Prng in
  for _ = 1 to 300 do
    let n = 1 + P.int g ~bound:60 in
    let xs =
      Array.init n (fun _ ->
          match P.int g ~bound:10 with
          | 0 -> Float.nan
          | 1 -> -0.0
          | 2 -> 0.0
          | _ -> float_of_int (P.int g ~bound:20))
    in
    let h = Stats.histogram xs in
    List.iter
      (fun (p, got) ->
        match Stats.percentile_opt xs ~p with
        | None -> Alcotest.(check int) "no samples" 0 h.Stats.n
        | Some want ->
          if Int64.bits_of_float got <> Int64.bits_of_float want then
            Alcotest.failf "histogram p%.0f %h <> percentile %h" p got want)
      [ (50.0, h.Stats.p50); (90.0, h.Stats.p90); (99.0, h.Stats.p99) ]
  done

(* --- exact integer counts ---------------------------------------------- *)

(* Every field, floats by bit pattern, so a mean folded in another
   order or a percentile read off by one rank shows. *)
let show_histogram (h : Stats.histogram) =
  Printf.sprintf
    "n=%d mean=%h min=%h max=%h p50=%h p90=%h p99=%h lo=%h width=%h [%s]"
    h.Stats.n h.Stats.mean h.Stats.min h.Stats.max h.Stats.p50 h.Stats.p90
    h.Stats.p99 h.Stats.bucket_lo h.Stats.bucket_width
    (String.concat ";" (List.map string_of_int (Array.to_list h.Stats.buckets)))

(* The counts histogram of [vs], added in order, against
   [Stats.histogram] of the same samples as a float array, in the same
   order, at 1, 3 and 10 buckets. *)
let check_counts msg (vs : int array) =
  let c = Stats.Counts.create () in
  Array.iter (Stats.Counts.add c) vs;
  Alcotest.(check int) (msg ^ ": count") (Array.length vs)
    (Stats.Counts.count c);
  List.iter
    (fun bins ->
      Alcotest.(check string)
        (Printf.sprintf "%s, bins=%d" msg bins)
        (show_histogram (Stats.histogram ~bins (Array.map float_of_int vs)))
        (show_histogram (Stats.Counts.histogram ~bins c)))
    [ 1; 3; 10 ]

let test_counts_edges () =
  check_counts "no samples" [||];
  check_counts "one value" [| 42 |];
  check_counts "one negative value" [| -7 |];
  check_counts "all equal" (Array.make 33 1_500);
  check_counts "zero and its neighbours" [| 0; -1; 1; 0; 0; -1 |];
  check_counts "extremes" [| max_int; min_int; 0; max_int; min_int |];
  check_counts "only min_int" (Array.make 5 min_int);
  check_counts "max_int beside its float neighbour"
    [| max_int; max_int - 1; max_int - 512; 3 |];
  (* 5,000 distinct values: the table doubles from its initial size
     past 8,192 slots, then every value is counted a second time. *)
  check_counts "growth"
    (Array.init 10_000 (fun i -> ((i mod 5_000) * 7_919) - 20_000_000))

(* Random arrival orders of tie-dense, negative, extreme and spread
   values, at sizes from empty to a few thousand. *)
let test_counts_random () =
  let g = Test_support.prng () in
  let module P = Rtlf_engine.Prng in
  for rep = 1 to 200 do
    let n =
      if rep mod 20 = 0 then 2_000 + P.int g ~bound:3_000
      else P.int g ~bound:80
    in
    let pool = 1 + P.int g ~bound:12 in
    let vs =
      Array.init n (fun _ ->
          match P.int g ~bound:10 with
          | 0 -> min_int + P.int g ~bound:3
          | 1 -> max_int - P.int g ~bound:3
          | 2 -> P.int g ~bound:1_000_000_000 - 500_000_000
          | _ -> (P.int g ~bound:pool - (pool / 2)) * 250)
    in
    check_counts (Printf.sprintf "rep %d, n=%d" rep n) vs
  done

let () =
  Test_support.run "stats_oracle"
    [
      ( "percentile",
        [
          Alcotest.test_case "random cross-check vs oracle" `Quick
            test_random_cross_check;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "all-equal" `Quick test_all_equal;
          Alcotest.test_case "NaN handling" `Quick test_nan_handling;
          Alcotest.test_case "infinities" `Quick test_infinities;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "monotone in p" `Quick test_monotone_in_p;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "random cross-check vs oracle" `Quick
            test_histogram_random;
          Alcotest.test_case "edge cases" `Quick test_histogram_edges;
          Alcotest.test_case "counts = float histogram, edge cases" `Quick
            test_counts_edges;
          Alcotest.test_case "counts = float histogram, random" `Quick
            test_counts_random;
          Alcotest.test_case "p50/p90/p99 = percentile" `Quick
            test_histogram_matches_percentile;
        ] );
    ]
