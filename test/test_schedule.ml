(* Tentative-schedule tests: ECF order, feasibility, the paper's §3.4.1
   insertion scenarios (Figures 4 and 5), in-place rollback and the
   abstract ops charges. *)

module Ts = Rtlf_core.Tentative_schedule

(* A schedule over jobs given as (jid, absolute critical time,
   remaining work); rank r is the r-th job of the list. *)
type scene = { sched : Ts.t; jids : int array }

let scene ?(now = 0) specs =
  let arr f = Array.of_list (List.map f specs) in
  let sched = Ts.create () in
  Ts.reset sched ~now
    ~rem:(arr (fun (_, _, rem) -> rem))
    ~act:(arr (fun (_, ct, _) -> ct))
    ~n:(List.length specs);
  { sched; jids = arr (fun (jid, _, _) -> jid) }

let rank sc jid =
  let rec go r = if sc.jids.(r) = jid then r else go (r + 1) in
  go 0

(* A chain of jids, head-first, as the ranks [insert_chain] takes. *)
let ranks sc chain = Array.of_list (List.map (rank sc) chain)

let insert sc chain =
  let c = ranks sc chain in
  Ts.insert_chain sc.sched c ~off:0 ~len:(Array.length c)

let try_insert sc chain =
  let c = ranks sc chain in
  Ts.try_insert_chain sc.sched c ~off:0 ~len:(Array.length c)

let jids sc =
  List.init (Ts.length sc.sched) (fun p -> sc.jids.(Ts.rank_at sc.sched p))

let eff_ct sc jid =
  let rec go p =
    if sc.jids.(Ts.rank_at sc.sched p) = jid then Ts.eff_ct_at sc.sched p
    else go (p + 1)
  in
  go 0

let pos sc jid =
  let rec go i = function
    | [] -> -1
    | x :: rest -> if x = jid then i else go (i + 1) rest
  in
  go 0 (jids sc)

(* --- plain ECF insertion ---------------------------------------------- *)

let test_ecf_order () =
  let sc = scene [ (0, 300, 10); (1, 100, 10); (2, 200, 10) ] in
  List.iter (fun jid -> insert sc [ jid ]) [ 0; 1; 2 ];
  Alcotest.(check (list int)) "ECF order" [ 1; 2; 0 ] (jids sc)

let test_insert_idempotent () =
  let sc = scene [ (0, 100, 10) ] in
  insert sc [ 0 ];
  insert sc [ 0 ];
  Alcotest.(check int) "single entry" 1 (Ts.length sc.sched)

let test_mem_and_head () =
  let sc = scene [ (3, 50, 5); (4, 60, 5) ] in
  Alcotest.(check int) "empty" 0 (Ts.length sc.sched);
  insert sc [ 3 ];
  Alcotest.(check bool) "mem" true (Ts.mem sc.sched ~rank:(rank sc 3));
  Alcotest.(check bool) "not mem" false (Ts.mem sc.sched ~rank:(rank sc 4));
  Alcotest.(check int) "head" 3 (List.hd (jids sc))

(* A rejected probe leaves the schedule as it was, clamped critical
   times included, and a later reset forgets everything. *)
let test_rejected_probe_rolls_back () =
  let sc =
    scene [ (1, 250, 10); (2, 300, 10); (3, 200, 10); (4, 5, 10) ]
  in
  insert sc [ 1; 2 ];
  let before = List.map (fun jid -> (jid, eff_ct sc jid)) (jids sc) in
  (* Reinserting 1 before 3 (Case 2), then 4 at the head, which cannot
     finish by 5: infeasible. *)
  Alcotest.(check bool) "probe rejected" false (try_insert sc [ 4; 1; 3 ]);
  Alcotest.(check (list (pair int int)))
    "restored" before
    (List.map (fun jid -> (jid, eff_ct sc jid)) (jids sc));
  Alcotest.(check bool) "3 absent" false (Ts.mem sc.sched ~rank:(rank sc 3));
  Alcotest.(check bool) "probe accepted" true (try_insert sc [ 1; 3 ]);
  Alcotest.(check (list int)) "kept" [ 1; 3; 2 ] (jids sc);
  Ts.reset sc.sched ~now:0 ~rem:[| 1; 1 |] ~act:[| 9; 9 |] ~n:2;
  Alcotest.(check int) "reset empties" 0 (Ts.length sc.sched);
  Alcotest.(check bool) "reset clears membership" false
    (Ts.mem sc.sched ~rank:1)

(* --- feasibility -------------------------------------------------------- *)

let test_feasible_simple () =
  let sc = scene [ (0, 100, 50); (1, 200, 50) ] in
  insert sc [ 0 ];
  insert sc [ 1 ];
  Alcotest.(check bool) "feasible" true (Ts.feasible sc.sched)

let test_infeasible_cumulative () =
  let sc = scene [ (0, 100, 80); (1, 150, 80) ] in
  insert sc [ 0 ];
  insert sc [ 1 ];
  (* Job 1 finishes at 160 > 150. *)
  Alcotest.(check bool) "infeasible" false (Ts.feasible sc.sched)

let test_feasibility_uses_now () =
  let sc = scene ~now:90 [ (0, 100, 20) ] in
  insert sc [ 0 ];
  (* 90 + 20 = 110 > 100. *)
  Alcotest.(check bool) "accounts for current time" false
    (Ts.feasible sc.sched)

let test_feasible_empty () =
  let sc = scene [] in
  Alcotest.(check bool) "empty schedule feasible" true (Ts.feasible sc.sched)

(* --- Figure 4: critical-time vs dependency order -------------------------- *)

(* T1 depends on T2 (chain <T2, T1>). Case 1: C2 < C1 — natural order.
   Case 2: C2 > C1 — T2 must still precede T1, with C2 clamped to C1. *)

let test_fig4_case1 () =
  let sc = scene [ (1, 500, 10); (2, 200, 10) ] in
  insert sc [ 2; 1 ];
  Alcotest.(check (list int)) "dependency respected" [ 2; 1 ] (jids sc);
  Alcotest.(check int) "no clamping needed" 200 (eff_ct sc 2)

let test_fig4_case2 () =
  let sc = scene [ (1, 200, 10); (2, 500, 10) ] in
  insert sc [ 2; 1 ];
  Alcotest.(check (list int)) "T2 inserted before T1 despite later ct"
    [ 2; 1 ] (jids sc);
  Alcotest.(check int) "C2 clamped to C1" 200 (eff_ct sc 2);
  Alcotest.(check int) "C1 unchanged" 200 (eff_ct sc 1)

(* --- Figure 5: removal and reinsertion -------------------------------------- *)

(* Chains: T1 -> <T1>, T2 -> <T1, T2>, T3 -> <T1, T3>; PUD order
   T2, T1, T3. After inserting T2's aggregate the schedule is
   <T1, T2>. Inserting T3's aggregate must keep T1 before T3; if
   C1 > C3 (Case 2), T1 is removed and reinserted before T3 with
   C1 := C3. *)

let test_fig5_case1 () =
  (* C1 < C3: T1 already precedes T3 naturally. *)
  let sc = scene [ (1, 100, 10); (2, 300, 10); (3, 200, 10) ] in
  insert sc [ 1; 2 ];
  Alcotest.(check (list int)) "after T2 aggregate" [ 1; 2 ] (jids sc);
  insert sc [ 1; 3 ];
  Alcotest.(check (list int)) "T1 before T3 and T2" [ 1; 3; 2 ] (jids sc)

let test_fig5_case2 () =
  (* C1 > C3: reinsertion with clamping. *)
  let sc = scene [ (1, 250, 10); (2, 300, 10); (3, 200, 10) ] in
  insert sc [ 1; 2 ];
  Alcotest.(check (list int)) "after T2 aggregate" [ 1; 2 ] (jids sc);
  insert sc [ 1; 3 ];
  Alcotest.(check (list int)) "T1 removed and reinserted before T3"
    [ 1; 3; 2 ] (jids sc);
  Alcotest.(check int) "C1 clamped to C3" 200 (eff_ct sc 1)

let test_long_chain_order () =
  (* A 4-deep chain with thoroughly shuffled critical times must end up
     in dependency order. *)
  let sc = scene [ (0, 900, 5); (1, 100, 5); (2, 700, 5); (3, 300, 5) ] in
  insert sc [ 0; 1; 2; 3 ];
  Alcotest.(check bool) "a before b" true (pos sc 0 < pos sc 1);
  Alcotest.(check bool) "b before c" true (pos sc 1 < pos sc 2);
  Alcotest.(check bool) "c before d" true (pos sc 2 < pos sc 3)

let test_chain_with_unrelated_entries () =
  (* Unrelated ECF entries must not break dependency placement. *)
  let sc =
    scene [ (10, 150, 5); (11, 400, 5); (1, 200, 5); (2, 600, 5) ]
  in
  insert sc [ 10 ];
  insert sc [ 11 ];
  insert sc [ 2; 1 ];
  Alcotest.(check bool) "dependency respected" true (pos sc 2 < pos sc 1);
  Alcotest.(check int) "all present" 4 (Ts.length sc.sched)

(* Each ordered operation charges ceil-log2(len+1), each feasibility
   walk len, whether or not a probe is kept. *)
let test_ops_counter_charged () =
  let sc = scene [ (0, 100, 10); (1, 200, 10); (2, 150, 10); (3, 5, 10) ] in
  let ops () = Ts.ops sc.sched in
  (* mem and insert at len 0: 1 + 1; feasible: 1. *)
  insert sc [ 0 ];
  ignore (Ts.feasible sc.sched);
  Alcotest.(check int) "singleton insert + walk" 3 (ops ());
  (* 1 (tail): mem + insert at len 1, 1 + 1. 0 (head): already before
     its successor, one lookup at len 2: 2. *)
  insert sc [ 0; 1 ];
  Alcotest.(check int) "Case 1 chain" 7 (ops ());
  (* 2 (tail): mem + insert at len 2, 2 + 2. 1 (head): after its
     successor, remove at len 3 (2) and reinsert at len 2 (2).
     Feasible walk of 3. The probe is kept. *)
  Alcotest.(check bool) "kept" true (try_insert sc [ 1; 2 ]);
  Alcotest.(check int) "Case 2 chain + walk" 18 (ops ());
  (* 3 cannot finish by 5: mem + insert at len 3 (2 + 2), walk of 4,
     all still charged after the rollback. *)
  Alcotest.(check bool) "rejected" false (try_insert sc [ 3 ]);
  Alcotest.(check int) "rejected probe stays charged" 26 (ops ());
  Ts.reset sc.sched ~now:0 ~rem:[||] ~act:[||] ~n:0;
  Alcotest.(check int) "reset zeroes" 0 (ops ())

(* --- properties ------------------------------------------------------------- *)

let prop_chain_order =
  QCheck.Test.make ~name:"insert_chain respects dependency order" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 8) (int_range 1 1_000))
    (fun cts ->
      let sc = scene (List.mapi (fun i ct -> (i, ct * 10, 1)) cts) in
      insert sc (List.mapi (fun i _ -> i) cts);
      (* The chain was head-first [0; 1; ...]; schedule order must list
         them in increasing jid. *)
      let order = jids sc in
      order = List.sort compare order && List.length order = List.length cts)

let prop_ecf_sorted =
  QCheck.Test.make ~name:"entries sorted by effective critical time"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 0 10) (int_range 1 1_000))
    (fun cts ->
      let sc = scene (List.mapi (fun i ct -> (i, ct * 10, 1)) cts) in
      List.iteri (fun i _ -> insert sc [ i ]) cts;
      let effs = List.init (Ts.length sc.sched) (Ts.eff_ct_at sc.sched) in
      effs = List.sort compare effs)

let () =
  Test_support.run "schedule"
    [
      ( "ecf",
        [
          Alcotest.test_case "ECF order" `Quick test_ecf_order;
          Alcotest.test_case "idempotent insert" `Quick test_insert_idempotent;
          Alcotest.test_case "mem and head" `Quick test_mem_and_head;
          Alcotest.test_case "rejected probe rolls back" `Quick
            test_rejected_probe_rolls_back;
          Test_support.to_alcotest prop_ecf_sorted;
        ] );
      ( "feasibility",
        [
          Alcotest.test_case "feasible simple" `Quick test_feasible_simple;
          Alcotest.test_case "cumulative infeasibility" `Quick
            test_infeasible_cumulative;
          Alcotest.test_case "uses current time" `Quick
            test_feasibility_uses_now;
          Alcotest.test_case "empty feasible" `Quick test_feasible_empty;
        ] );
      ( "figure4",
        [
          Alcotest.test_case "case 1: consistent orders" `Quick
            test_fig4_case1;
          Alcotest.test_case "case 2: clamp and precede" `Quick
            test_fig4_case2;
        ] );
      ( "figure5",
        [
          Alcotest.test_case "case 1: already before" `Quick test_fig5_case1;
          Alcotest.test_case "case 2: removal and reinsertion" `Quick
            test_fig5_case2;
          Alcotest.test_case "long shuffled chain" `Quick
            test_long_chain_order;
          Alcotest.test_case "chain among unrelated entries" `Quick
            test_chain_with_unrelated_entries;
          Alcotest.test_case "ops counter charged" `Quick
            test_ops_counter_charged;
          Test_support.to_alcotest prop_chain_order;
        ] );
    ]
