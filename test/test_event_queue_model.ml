(* Property-based model tests for Engine.Event_queue: random operation
   sequences are applied both to the heap and to a sorted association
   list reference model (stable-sorted by (time, insertion seq), i.e.
   exactly the documented dequeue order), and every observation must
   agree — including [filter_in_place] and FIFO tie ordering. *)

module Eq = Rtlf_engine.Event_queue

(* Reference model: list of (time, seq, payload) kept sorted by
   (time, seq). [seq] is a global insertion counter, so equal-time
   events stay in insertion order. *)
module Model = struct
  type t = { mutable items : (int * int * int) list; mutable seq : int }

  let create () = { items = []; seq = 0 }

  let sort m =
    m.items <-
      List.stable_sort
        (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
        m.items

  let add m ~time v =
    m.items <- (time, m.seq, v) :: m.items;
    m.seq <- m.seq + 1;
    sort m

  let peek m =
    match m.items with [] -> None | (t, _, v) :: _ -> Some (t, v)

  let pop m =
    match m.items with
    | [] -> None
    | (t, _, v) :: rest ->
      m.items <- rest;
      Some (t, v)

  let filter m keep = m.items <- List.filter (fun (t, _, v) -> keep t v) m.items
  let clear m = m.items <- []
  let to_list m = List.map (fun (t, _, v) -> (t, v)) m.items
  let length m = List.length m.items
end

type cmd =
  | Add of int * int  (* time, payload *)
  | Pop
  | Peek
  | Filter_mod of int (* keep payloads not divisible by n *)
  | Filter_time of int (* keep events at time >= t *)
  | Clear
  | Observe  (* compare to_list / length / is_empty / min_time *)

(* Keys: mostly a narrow range, so ties are dense; also negative keys
   and keys at and beyond 2^40, where heap comparisons must not wrap. *)
let key_gen =
  QCheck.Gen.(
    frequency
      [
        (6, int_bound 50);
        (1, map (fun k -> -1 - k) (int_bound 50));
        (1, map (fun k -> (1 lsl 40) + k) (int_bound 50));
        (1, map (fun k -> max_int - k) (int_bound 50));
      ])

let cmd_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun t v -> Add (t, v)) key_gen (int_bound 1000));
        (3, return Pop);
        (2, return Peek);
        (1, map (fun n -> Filter_mod (n + 2)) (int_bound 3));
        (1, map (fun t -> Filter_time t) (int_bound 50));
        (1, return Clear);
        (2, return Observe);
      ])

let pp_cmd = function
  | Add (t, v) -> Printf.sprintf "add ~time:%d %d" t v
  | Pop -> "pop"
  | Peek -> "peek"
  | Filter_mod n -> Printf.sprintf "filter (v mod %d <> 0)" n
  | Filter_time t -> Printf.sprintf "filter (time >= %d)" t
  | Clear -> "clear"
  | Observe -> "observe"

let cmds_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_cmd l))
    QCheck.Gen.(
      list_size
        (* Now and then a long run, so ties pile up across many pops. *)
        (frequency [ (9, int_bound 60); (1, int_range 200 400) ])
        cmd_gen)

let agree_opt what cmd a b =
  if a <> b then
    QCheck.Test.fail_reportf "%s after %s: heap %s, model %s" what (pp_cmd cmd)
      (match a with
      | None -> "None"
      | Some (t, v) -> Printf.sprintf "Some (%d, %d)" t v)
      (match b with
      | None -> "None"
      | Some (t, v) -> Printf.sprintf "Some (%d, %d)" t v)

let run_cmds cmds =
  let q = Eq.create () in
  let m = Model.create () in
  List.iter
    (fun cmd ->
      (match cmd with
      | Add (t, v) ->
        Eq.add q ~time:t v;
        Model.add m ~time:t v
      | Pop -> agree_opt "pop" cmd (Eq.pop q) (Model.pop m)
      | Peek -> agree_opt "peek" cmd (Eq.peek q) (Model.peek m)
      | Filter_mod n ->
        Eq.filter_in_place q (fun _ v -> v mod n <> 0);
        Model.filter m (fun _ v -> v mod n <> 0)
      | Filter_time t0 ->
        Eq.filter_in_place q (fun t _ -> t >= t0);
        Model.filter m (fun t _ -> t >= t0)
      | Clear ->
        Eq.clear q;
        Model.clear m
      | Observe ->
        if Eq.to_list q <> Model.to_list m then
          QCheck.Test.fail_reportf "to_list disagrees";
        if Eq.length q <> Model.length m then
          QCheck.Test.fail_reportf "length disagrees";
        if Eq.is_empty q <> (Model.length m = 0) then
          QCheck.Test.fail_reportf "is_empty disagrees";
        if Eq.min_time q <> Option.fold ~none:max_int ~some:fst (Model.peek m)
        then QCheck.Test.fail_reportf "min_time disagrees");
      (* to_list must never disturb the queue: popping everything after
         the run (below) still matches the model. *)
      ())
    cmds;
  (* Final drain pins full dequeue order, ties included. *)
  let rec drain acc = function
    | None -> List.rev acc
    | Some tv -> drain (tv :: acc) (Eq.pop q)
  in
  let heap_rest = drain [] (Eq.pop q) in
  let rec mdrain acc =
    match Model.pop m with None -> List.rev acc | Some tv -> mdrain (tv :: acc)
  in
  let model_rest = mdrain [] in
  heap_rest = model_rest

let prop_matches_model =
  QCheck.Test.make ~name:"event_queue = sorted assoc list model" ~count:500
    cmds_arb run_cmds

(* Deterministic spot checks of FIFO tie ordering, drain, and
   filter_in_place survivor order. *)
let test_tie_order () =
  let q = Eq.create () in
  List.iter (fun v -> Eq.add q ~time:7 v) [ 1; 2; 3 ];
  Eq.add q ~time:3 0;
  Eq.add q ~time:7 4;
  Alcotest.(check (list (pair int int)))
    "equal keys dequeue in insertion order"
    [ (3, 0); (7, 1); (7, 2); (7, 3); (7, 4) ]
    (Eq.drain q)

let test_filter_preserves_tie_order () =
  let q = Eq.create () in
  List.iter (fun v -> Eq.add q ~time:5 v) [ 10; 11; 12; 13; 14 ];
  Eq.filter_in_place q (fun _ v -> v mod 2 = 0);
  Alcotest.(check (list (pair int int)))
    "survivors keep insertion order"
    [ (5, 10); (5, 12); (5, 14) ]
    (Eq.drain q)

let test_filter_by_time () =
  let q = Eq.create () in
  List.iteri (fun i v -> Eq.add q ~time:i v) [ 100; 101; 102; 103 ];
  Eq.filter_in_place q (fun t _ -> t >= 2);
  Alcotest.(check (list (pair int int)))
    "time filter" [ (2, 102); (3, 103) ] (Eq.drain q)

let seeded_random_soak () =
  (* Long seeded soak through the model, independent of QCheck: drives
     the same commands from the RTLF_SEED-derived Prng stream. *)
  let g = Test_support.prng () in
  let module P = Rtlf_engine.Prng in
  for _ = 1 to 200 do
    let len = P.int g ~bound:80 in
    let cmds =
      List.init len (fun _ ->
          match P.int g ~bound:10 with
          | 0 | 1 | 2 | 3 ->
            Add (P.int g ~bound:40, P.int g ~bound:1000)
          | 4 | 5 -> Pop
          | 6 -> Peek
          | 7 -> Filter_mod (2 + P.int g ~bound:3)
          | 8 -> Filter_time (P.int g ~bound:40)
          | _ -> Observe)
    in
    if not (run_cmds cmds) then
      Alcotest.failf "drain order diverged (RTLF_SEED=%d)" Test_support.seed
  done

let () =
  Test_support.run "event_queue_model"
    [
      ( "model",
        [
          Test_support.to_alcotest prop_matches_model;
          Alcotest.test_case "seeded soak" `Quick seeded_random_soak;
        ] );
      ( "ties",
        [
          Alcotest.test_case "FIFO tie order" `Quick test_tie_order;
          Alcotest.test_case "filter keeps tie order" `Quick
            test_filter_preserves_tie_order;
          Alcotest.test_case "filter by time" `Quick test_filter_by_time;
        ] );
    ]
