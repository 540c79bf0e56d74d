(* Lock-manager tests: grants, FIFO waiting, dependency chains (the
   paper's Figure 3 scenario), deadlock cycles (§3.3), abort release. *)

module Resource = Rtlf_model.Resource
module Lock_manager = Rtlf_model.Lock_manager

let mk ?(n = 5) () = Lock_manager.create ~objects:(Resource.create ~n)

let granted = function
  | Lock_manager.Granted -> true
  | Lock_manager.Blocked_on _ -> false

(* --- grants and releases -------------------------------------------------- *)

let test_grant_free_object () =
  let tbl = mk () in
  Alcotest.(check bool) "granted" true
    (granted (Lock_manager.request tbl ~jid:1 ~obj:0));
  Alcotest.(check bool) "owner recorded" true
    (Lock_manager.owner tbl ~obj:0 = Some 1);
  Alcotest.(check (list int)) "holding" [ 0 ] (Lock_manager.holding tbl ~jid:1)

let test_reentrant_same_owner () =
  let tbl = mk () in
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  Alcotest.(check bool) "same owner granted again" true
    (granted (Lock_manager.request tbl ~jid:1 ~obj:0))

let test_block_on_held () =
  let tbl = mk () in
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  (match Lock_manager.request tbl ~jid:2 ~obj:0 with
  | Lock_manager.Blocked_on owner -> Alcotest.(check int) "owner" 1 owner
  | Lock_manager.Granted -> Alcotest.fail "expected block");
  Alcotest.(check bool) "wait recorded" true
    (Lock_manager.waiting_for tbl ~jid:2 = Some 0);
  Alcotest.(check (list int)) "queue" [ 2 ] (Lock_manager.waiters tbl ~obj:0)

let test_release_hands_to_fifo_head () =
  let tbl = mk () in
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:3 ~obj:0);
  (match Lock_manager.release tbl ~jid:1 ~obj:0 with
  | Some next -> Alcotest.(check int) "FIFO head gets lock" 2 next
  | None -> Alcotest.fail "expected handoff");
  Alcotest.(check bool) "new owner" true
    (Lock_manager.owner tbl ~obj:0 = Some 2);
  Alcotest.(check (list int)) "remaining queue" [ 3 ]
    (Lock_manager.waiters tbl ~obj:0);
  Alcotest.(check bool) "waiter 2 no longer waits" true
    (Lock_manager.waiting_for tbl ~jid:2 = None);
  Lock_manager.assert_consistent tbl

let test_release_without_holding () =
  let tbl = mk () in
  Alcotest.check_raises "not holder"
    (Invalid_argument "Lock_manager.release: job 9 does not hold 0")
    (fun () -> ignore (Lock_manager.release tbl ~jid:9 ~obj:0))

let test_release_all () =
  let tbl = mk () in
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:1 ~obj:1);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:1 ~obj:2);
  let released = Lock_manager.release_all tbl ~jid:1 in
  Alcotest.(check int) "all released" 3 (List.length released);
  Alcotest.(check bool) "nothing held" true
    (Lock_manager.holding tbl ~jid:1 = []);
  Alcotest.(check bool) "handed object 0 to waiter" true
    (Lock_manager.owner tbl ~obj:0 = Some 2);
  Lock_manager.assert_consistent tbl

let test_cancel_wait () =
  let tbl = mk () in
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:0);
  Lock_manager.cancel_wait tbl ~jid:2;
  Alcotest.(check (list int)) "queue emptied" []
    (Lock_manager.waiters tbl ~obj:0);
  (* Release must now find no waiter. *)
  Alcotest.(check bool) "no handoff" true
    (Lock_manager.release tbl ~jid:1 ~obj:0 = None);
  Lock_manager.assert_consistent tbl

(* --- dependency chains (Figure 3) ------------------------------------------ *)

(* T1 requests R1 held by T2; T2 requests R2 held by T3; T3 free.
   Chains: T1 -> [T3; T2; T1], T2 -> [T3; T2], T3 -> [T3]. *)
let fig3_scenario () =
  let tbl = mk () in
  let t1 = 1 and t2 = 2 and t3 = 3 in
  let r1 = 0 and r2 = 1 in
  ignore (Lock_manager.request tbl ~jid:t2 ~obj:r1);
  ignore (Lock_manager.request tbl ~jid:t3 ~obj:r2);
  ignore (Lock_manager.request tbl ~jid:t1 ~obj:r1);
  ignore (Lock_manager.request tbl ~jid:t2 ~obj:r2);
  tbl

let test_fig3_chains () =
  let tbl = fig3_scenario () in
  Alcotest.(check (list int)) "T1 chain" [ 3; 2; 1 ]
    (Lock_manager.dependency_chain tbl ~jid:1);
  Alcotest.(check (list int)) "T2 chain" [ 3; 2 ]
    (Lock_manager.dependency_chain tbl ~jid:2);
  Alcotest.(check (list int)) "T3 chain" [ 3 ]
    (Lock_manager.dependency_chain tbl ~jid:3)

let test_fig3_no_cycle () =
  let tbl = fig3_scenario () in
  List.iter
    (fun jid ->
      Alcotest.(check bool)
        (Printf.sprintf "no cycle from %d" jid)
        true
        (Lock_manager.find_cycle tbl ~jid = None))
    [ 1; 2; 3 ]

let test_chain_of_independent_job () =
  let tbl = mk () in
  Alcotest.(check (list int)) "singleton" [ 42 ]
    (Lock_manager.dependency_chain tbl ~jid:42)

(* --- deadlock cycles (§3.3) -------------------------------------------------- *)

(* T1 holds R0 and wants R1; T2 holds R1 and wants R0: a 2-cycle —
   possible only with nested critical sections. *)
let cycle2_scenario () =
  let tbl = mk () in
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:1);
  ignore (Lock_manager.request tbl ~jid:1 ~obj:1);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:0);
  tbl

let test_cycle_detection () =
  let tbl = cycle2_scenario () in
  (match Lock_manager.find_cycle tbl ~jid:1 with
  | Some cycle ->
    Alcotest.(check (list int)) "cycle members" [ 1; 2 ]
      (List.sort compare cycle)
  | None -> Alcotest.fail "cycle not detected");
  (match Lock_manager.find_cycle tbl ~jid:2 with
  | Some _ -> ()
  | None -> Alcotest.fail "cycle not detected from other side")

let test_three_cycle () =
  let tbl = mk () in
  (* 1 holds R0 wants R1; 2 holds R1 wants R2; 3 holds R2 wants R0. *)
  ignore (Lock_manager.request tbl ~jid:1 ~obj:0);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:1);
  ignore (Lock_manager.request tbl ~jid:3 ~obj:2);
  ignore (Lock_manager.request tbl ~jid:1 ~obj:1);
  ignore (Lock_manager.request tbl ~jid:2 ~obj:2);
  ignore (Lock_manager.request tbl ~jid:3 ~obj:0);
  match Lock_manager.find_cycle tbl ~jid:1 with
  | Some cycle ->
    Alcotest.(check (list int)) "3-cycle" [ 1; 2; 3 ]
      (List.sort compare cycle)
  | None -> Alcotest.fail "3-cycle not detected"

let test_cycle_broken_by_release () =
  let tbl = cycle2_scenario () in
  (* Abort job 2: releases R1 (handing it to waiter 1) and cancels its
     wait on R0 — the cycle disappears. *)
  ignore (Lock_manager.release_all tbl ~jid:2);
  Alcotest.(check bool) "no cycle" true
    (Lock_manager.find_cycle tbl ~jid:1 = None);
  Alcotest.(check bool) "1 now owns R1" true
    (Lock_manager.owner tbl ~obj:1 = Some 1);
  Lock_manager.assert_consistent tbl

let test_blocked_jobs_listing () =
  let tbl = fig3_scenario () in
  Alcotest.(check (list int)) "blocked jobs" [ 1; 2 ]
    (List.sort compare (Lock_manager.blocked_jobs tbl))

(* --- randomized consistency --------------------------------------------------- *)

let prop_random_ops_consistent =
  (* Random request/release traffic keeps the table internally
     consistent. Jobs release only objects they hold; requests may
     block (then the job is parked until a release hands over). *)
  QCheck.Test.make ~name:"random lock traffic stays consistent" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 200) (pair (int_bound 7) (int_bound 4)))
    (fun ops ->
      let tbl = mk ~n:5 () in
      let parked = Hashtbl.create 8 in
      List.iter
        (fun (jid, obj) ->
          if not (Hashtbl.mem parked jid) then begin
            if List.mem obj (Lock_manager.holding tbl ~jid) then begin
              match Lock_manager.release tbl ~jid ~obj with
              | Some woken -> Hashtbl.remove parked woken
              | None -> ()
            end
            else
              match Lock_manager.request tbl ~jid ~obj with
              | Lock_manager.Granted -> ()
              | Lock_manager.Blocked_on _ -> Hashtbl.replace parked jid ()
          end)
        ops;
      Lock_manager.assert_consistent tbl;
      true)

(* --- model-based check ---------------------------------------------------- *)

(* A list model of the lock table, written independently of its arrays:
   [grants] holds (obj, jid) pairs newest grant first, [queue] holds
   (obj, jid) waits in arrival order, so each object's FIFO is its
   filter. *)
module Model = struct
  type t = {
    mutable grants : (int * int) list;
    mutable queue : (int * int) list;
  }

  let create () = { grants = []; queue = [] }
  let owner m obj = List.assoc_opt obj m.grants

  let holding m jid =
    List.filter_map (fun (o, j) -> if j = jid then Some o else None) m.grants

  let waiters m obj =
    List.filter_map (fun (o, j) -> if o = obj then Some j else None) m.queue

  let waiting_for m jid =
    List.find_map (fun (o, j) -> if j = jid then Some o else None) m.queue

  let request m jid obj =
    match owner m obj with
    | None ->
      m.grants <- (obj, jid) :: m.grants;
      Lock_manager.Granted
    | Some holder when holder = jid -> Lock_manager.Granted
    | Some holder ->
      m.queue <- m.queue @ [ (obj, jid) ];
      Lock_manager.Blocked_on holder

  let release m jid obj =
    m.grants <- List.filter (( <> ) (obj, jid)) m.grants;
    match waiters m obj with
    | [] -> None
    | next :: _ ->
      m.queue <- List.filter (( <> ) (obj, next)) m.queue;
      m.grants <- (obj, next) :: m.grants;
      Some next

  let cancel_wait m jid =
    m.queue <- List.filter (fun (_, j) -> j <> jid) m.queue

  let release_all m jid =
    cancel_wait m jid;
    List.map (fun obj -> (obj, release m jid obj)) (holding m jid)

  (* The job [jid] is blocked behind, if any. *)
  let blocker m jid = Option.bind (waiting_for m jid) (owner m)

  (* Walk the blocked-behind edges; the path is kept in walk order. *)
  let rec path m jid acc =
    if List.mem jid acc then (List.rev acc, Some jid)
    else
      match blocker m jid with
      | None -> (List.rev (jid :: acc), None)
      | Some next -> path m next (jid :: acc)

  let dependency_chain m jid = List.rev (fst (path m jid []))

  let find_cycle m jid =
    match path m jid [] with
    | _, None -> None
    | walked, Some again ->
      let rec from = function
        | [] -> []
        | x :: rest -> if x = again then x :: rest else from rest
      in
      Some (from walked)
end

type op =
  | Request of int * int
  | Release of int * int (* the job's k-th held object, if any *)
  | Release_all of int
  | Cancel_wait of int

(* Eight jobs on four objects: nested requests close cycles, and up to
   seven waiters on one object outgrow a queue's first four slots. *)
let n_jobs = 8
let n_objs = 4

let pp_op = function
  | Request (j, o) -> Printf.sprintf "request J%d o%d" j o
  | Release (j, k) -> Printf.sprintf "release J%d #%d" j k
  | Release_all j -> Printf.sprintf "release_all J%d" j
  | Cancel_wait j -> Printf.sprintf "cancel_wait J%d" j

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun j o -> Request (j, o)) (int_bound (n_jobs - 1))
              (int_bound (n_objs - 1)));
        (4, map2 (fun j k -> Release (j, k)) (int_bound (n_jobs - 1))
              (int_bound 3));
        (1, map (fun j -> Release_all j) (int_bound (n_jobs - 1)));
        (1, map (fun j -> Cancel_wait j) (int_bound (n_jobs - 1)));
      ])

let ops_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_op l))
    QCheck.Gen.(list_size (int_range 0 120) op_gen)

(* Every query of the table against the model, for every job and
   object. *)
let agree tbl m op =
  let fail what =
    QCheck.Test.fail_reportf "%s disagrees after %s" what (pp_op op)
  in
  for obj = 0 to n_objs - 1 do
    if Lock_manager.owner tbl ~obj <> Model.owner m obj then fail "owner";
    if Lock_manager.waiters tbl ~obj <> Model.waiters m obj then fail "waiters"
  done;
  for jid = 0 to n_jobs - 1 do
    if Lock_manager.waiting_for tbl ~jid <> Model.waiting_for m jid then
      fail "waiting_for";
    if Lock_manager.holding tbl ~jid <> Model.holding m jid then fail "holding";
    if Lock_manager.dependency_chain tbl ~jid <> Model.dependency_chain m jid
    then fail "dependency_chain";
    if Lock_manager.find_cycle tbl ~jid <> Model.find_cycle m jid then
      fail "find_cycle"
  done;
  Lock_manager.assert_consistent tbl

let prop_matches_model =
  QCheck.Test.make ~name:"lock table = list model" ~count:300 ops_arb
    (fun ops ->
      let tbl = mk ~n:n_objs () in
      let m = Model.create () in
      List.iter
        (fun op ->
          (match op with
          | Request (jid, obj) ->
            (* A waiting job does not run, so it does not request. *)
            if Model.waiting_for m jid = None then
              if Lock_manager.request tbl ~jid ~obj <> Model.request m jid obj
              then QCheck.Test.fail_reportf "grant disagrees: %s" (pp_op op)
          | Release (jid, k) -> (
            match Model.holding m jid with
            | [] -> ()
            | held ->
              let obj = List.nth held (k mod List.length held) in
              if Lock_manager.release tbl ~jid ~obj <> Model.release m jid obj
              then
                QCheck.Test.fail_reportf "new owner disagrees: %s" (pp_op op))
          | Release_all jid ->
            if Lock_manager.release_all tbl ~jid <> Model.release_all m jid then
              QCheck.Test.fail_reportf "release order disagrees: %s" (pp_op op)
          | Cancel_wait jid ->
            Lock_manager.cancel_wait tbl ~jid;
            Model.cancel_wait m jid);
          agree tbl m op)
        ops;
      true)

(* An uncontended request + release pair allocates nothing: the table
   is fixed arrays, and both outcomes are constant constructors. *)
let test_uncontended_pair_allocation () =
  let tbl = mk () in
  let n = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    ignore (Lock_manager.request tbl ~jid:1 ~obj:(i mod 5));
    ignore (Lock_manager.release tbl ~jid:1 ~obj:(i mod 5))
  done;
  let per_pair = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check (float 0.0)) "minor words per pair" 0.0 per_pair

let () =
  Test_support.run "lock_manager"
    [
      ( "grants",
        [
          Alcotest.test_case "grant free object" `Quick test_grant_free_object;
          Alcotest.test_case "reentrant same owner" `Quick
            test_reentrant_same_owner;
          Alcotest.test_case "block on held" `Quick test_block_on_held;
          Alcotest.test_case "FIFO handoff" `Quick
            test_release_hands_to_fifo_head;
          Alcotest.test_case "release without holding" `Quick
            test_release_without_holding;
          Alcotest.test_case "release_all" `Quick test_release_all;
          Alcotest.test_case "cancel_wait" `Quick test_cancel_wait;
        ] );
      ( "chains",
        [
          Alcotest.test_case "Figure 3 chains" `Quick test_fig3_chains;
          Alcotest.test_case "Figure 3 has no cycle" `Quick test_fig3_no_cycle;
          Alcotest.test_case "independent job" `Quick
            test_chain_of_independent_job;
          Alcotest.test_case "blocked jobs listing" `Quick
            test_blocked_jobs_listing;
        ] );
      ( "deadlocks",
        [
          Alcotest.test_case "2-cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "3-cycle detection" `Quick test_three_cycle;
          Alcotest.test_case "cycle broken by release_all" `Quick
            test_cycle_broken_by_release;
        ] );
      ( "consistency",
        [
          Test_support.to_alcotest prop_random_ops_consistent;
          Test_support.to_alcotest prop_matches_model;
          Alcotest.test_case "uncontended pair allocates nothing" `Quick
            test_uncontended_pair_allocation;
        ] );
    ]
