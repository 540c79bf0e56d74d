(* Edge-case suite for the admission feasibility index — the cases the
   scheduler differential suites only reach incidentally: the empty
   range, a single admitted entry, slack ties across every position,
   and storage reuse across [reset]. Plus the order-independence
   invariant the static-mode min-slack reconstruction leans on: under
   the admission protocol ([slack = ect - prefix_rem - rem] at admit
   time, suffix range-add afterwards) the final slack at an admitted
   position [p] is [ect_p] minus the total admitted work at positions
   [<= p], whatever order the positions were admitted in — checked
   against a brute-force sorted-list oracle. *)

module Slack_tree = Rtlf_core.Slack_tree

let sentinel = Slack_tree.sentinel

(* "No admitted position in range" answers are only promised to be
   huge, not exactly [sentinel]: vacant leaves sit at the sentinel but
   still absorb the suffix range-adds of earlier admissions. *)
let is_vacant v = v > sentinel / 2

let test_empty () =
  let t = Slack_tree.create () in
  Slack_tree.reset t ~n:0;
  Alcotest.(check int) "min_all" sentinel (Slack_tree.min_all t);
  Alcotest.(check int) "suffix_min at 0" sentinel
    (Slack_tree.suffix_min t ~pos:0);
  Alcotest.(check int) "suffix_min past end" sentinel
    (Slack_tree.suffix_min t ~pos:5);
  Alcotest.(check int) "prefix_rem" 0 (Slack_tree.prefix_rem t ~pos:0)

let test_single () =
  let t = Slack_tree.create () in
  Slack_tree.reset t ~n:1;
  Alcotest.(check int) "vacant min_all" sentinel (Slack_tree.min_all t);
  Alcotest.(check int) "vacant prefix_rem" 0 (Slack_tree.prefix_rem t ~pos:0);
  Slack_tree.admit t ~pos:0 ~rem:7 ~slack:42;
  Alcotest.(check int) "min_all" 42 (Slack_tree.min_all t);
  Alcotest.(check int) "suffix_min at 0" 42 (Slack_tree.suffix_min t ~pos:0);
  Alcotest.(check int) "suffix_min past end" sentinel
    (Slack_tree.suffix_min t ~pos:1);
  Alcotest.(check int) "prefix_rem" 7 (Slack_tree.prefix_rem t ~pos:0);
  Slack_tree.probe t ~pos:0;
  Alcotest.(check int) "probe before" 0 (Slack_tree.before t);
  Alcotest.(check int) "probe after the last position" sentinel
    (Slack_tree.after t)

(* ect_p = base + (admitted work <= p) makes every final slack equal to
   [base]: ties at every position must not confuse the range-min, and
   the suffix min must be flat wherever an admitted position remains in
   range. Ends by re-resetting smaller, pinning that reused storage
   comes back clean. *)
let test_all_equal () =
  let n = 16 and base = 1000 in
  let rem = Array.init n (fun i -> 1 + (i mod 5)) in
  let t = Slack_tree.create () in
  Slack_tree.reset t ~n;
  for p = 0 to n - 1 do
    let before = Slack_tree.prefix_rem t ~pos:p in
    let ect = base + before + rem.(p) in
    Slack_tree.admit t ~pos:p ~rem:rem.(p) ~slack:(ect - before - rem.(p))
  done;
  Alcotest.(check int) "min_all" base (Slack_tree.min_all t);
  for p = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "suffix_min at %d" p)
      base
      (Slack_tree.suffix_min t ~pos:p)
  done;
  Slack_tree.reset t ~n:4;
  Alcotest.(check int) "clean after reset" sentinel (Slack_tree.min_all t);
  Alcotest.(check int) "prefix clean after reset" 0
    (Slack_tree.prefix_rem t ~pos:3)

let shuffle rs arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let test_order_independence () =
  let rs = Test_support.rand_state () in
  for rep = 1 to 50 do
    let n = 1 + Random.State.int rs 24 in
    let rem = Array.init n (fun _ -> 1 + Random.State.int rs 50) in
    let ect = Array.init n (fun _ -> 100 + Random.State.int rs 2000) in
    let admitted = Array.init n (fun _ -> Random.State.bool rs) in
    let chosen =
      Array.of_list
        (List.filter (fun p -> admitted.(p)) (List.init n (fun p -> p)))
    in
    let build order =
      let t = Slack_tree.create () in
      Slack_tree.reset t ~n;
      Array.iter
        (fun p ->
          let before = Slack_tree.prefix_rem t ~pos:p in
          Slack_tree.admit t ~pos:p ~rem:rem.(p)
            ~slack:(ect.(p) - before - rem.(p)))
        order;
      t
    in
    let t1 = build chosen in
    let t2 = build (shuffle rs chosen) in
    (* Sorted-list oracle over the final admitted set. *)
    let prefix pos =
      let acc = ref 0 in
      for q = 0 to min pos (n - 1) do
        if admitted.(q) then acc := !acc + rem.(q)
      done;
      !acc
    in
    let slack p = ect.(p) - prefix p in
    let suffix pos =
      let best = ref None in
      for q = pos to n - 1 do
        if admitted.(q) then
          best :=
            Some (match !best with None -> slack q | Some b -> min b (slack q))
      done;
      !best
    in
    let msg q = Printf.sprintf "rep=%d n=%d %s" rep n q in
    for pos = 0 to n - 1 do
      Alcotest.(check int)
        (msg (Printf.sprintf "prefix_rem %d" pos))
        (prefix pos)
        (Slack_tree.prefix_rem t1 ~pos);
      let s1 = Slack_tree.suffix_min t1 ~pos
      and s2 = Slack_tree.suffix_min t2 ~pos in
      Alcotest.(check int)
        (msg (Printf.sprintf "suffix_min %d order-independent" pos))
        s1 s2;
      match suffix pos with
      | Some expect ->
        Alcotest.(check int)
          (msg (Printf.sprintf "suffix_min %d vs oracle" pos))
          expect s1
      | None ->
        Alcotest.(check bool)
          (msg (Printf.sprintf "suffix_min %d vacant" pos))
          true (is_vacant s1)
    done;
    let m1 = Slack_tree.min_all t1 in
    Alcotest.(check int) (msg "min_all order-independent") m1
      (Slack_tree.min_all t2);
    match suffix 0 with
    | Some expect -> Alcotest.(check int) (msg "min_all vs oracle") expect m1
    | None ->
      Alcotest.(check bool) (msg "min_all vacant") true (is_vacant m1)
  done

(* Seeded random sequences against a brute-force array, checked after
   every single [admit]: the array holds each position's slack (vacant
   positions start at the sentinel and take suffix adds like admitted
   ones) and each position's admitted rem. Every position is also
   probed on its own: the walk's exclusive prefix sum and suffix min
   against the same array. One instance runs every size, so storage is
   reused across resets to smaller and larger n. *)
let test_random_sequences () =
  let rs = Test_support.rand_state () in
  let t = Slack_tree.create () in
  List.iter
    (fun n ->
      Slack_tree.reset t ~n;
      let slack = Array.make n sentinel and rem_at = Array.make n 0 in
      let check step =
        let msg q = Printf.sprintf "n=%d step=%d %s" n step q in
        let acc = ref 0 in
        for pos = 0 to n - 1 do
          acc := !acc + rem_at.(pos);
          Alcotest.(check int)
            (msg (Printf.sprintf "prefix_rem %d" pos))
            !acc
            (Slack_tree.prefix_rem t ~pos)
        done;
        let best = ref sentinel in
        for pos = n - 1 downto 0 do
          best := Int.min !best slack.(pos);
          Alcotest.(check int)
            (msg (Printf.sprintf "suffix_min %d" pos))
            !best
            (Slack_tree.suffix_min t ~pos)
        done;
        Alcotest.(check int) (msg "suffix_min past end") sentinel
          (Slack_tree.suffix_min t ~pos:n);
        Alcotest.(check int) (msg "min_all") !best (Slack_tree.min_all t);
        let after = Array.make (n + 1) sentinel in
        for q = n - 1 downto 1 do
          after.(q - 1) <- Int.min after.(q) slack.(q)
        done;
        let before = ref 0 in
        for pos = 0 to n - 1 do
          Slack_tree.probe t ~pos;
          Alcotest.(check int)
            (msg (Printf.sprintf "probe %d before" pos))
            !before (Slack_tree.before t);
          Alcotest.(check int)
            (msg (Printf.sprintf "probe %d after" pos))
            after.(pos) (Slack_tree.after t);
          before := !before + rem_at.(pos)
        done
      in
      check 0;
      let order = shuffle rs (Array.init n (fun p -> p)) in
      let k = Random.State.int rs (n + 1) in
      for step = 1 to k do
        let pos = order.(step - 1) in
        let rem = if Random.State.int rs 4 = 0 then 0 else Random.State.int rs 60 in
        let v = Random.State.int rs 4000 - 500 in
        Slack_tree.admit t ~pos ~rem ~slack:v;
        slack.(pos) <- v;
        rem_at.(pos) <- rem;
        for q = pos + 1 to n - 1 do
          slack.(q) <- slack.(q) - rem
        done;
        check step
      done)
    [ 1; 2; 3; 5; 17; 33; 64; 100; 257; 5; 100; 0; 33 ]

let () =
  Test_support.run "slack_tree"
    [
      ( "edges",
        [
          Alcotest.test_case "empty tree" `Quick test_empty;
          Alcotest.test_case "single admitted job" `Quick test_single;
          Alcotest.test_case "all-equal slacks + reset reuse" `Quick
            test_all_equal;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "admission-order independence vs oracle" `Quick
            test_order_independence;
          Alcotest.test_case "random sequences vs brute force" `Quick
            test_random_sequences;
        ] );
    ]
