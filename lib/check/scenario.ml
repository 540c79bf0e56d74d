(* Checking scenarios: one [def] per structure, binding together an
   instrumented instance (the structure's [Make] functor applied to
   [Shim.Atomic]/[Shim.Mutex]), a sequential specification for the
   linearizability oracle, audit ops that pin the final state, fixed
   smoke programs explored exhaustively, and a seeded generator of
   random programs.

   All structures share one [op]/[res] vocabulary so histories,
   printers and shrinking are written once. *)

module Prng = Rtlf_engine.Prng

type op =
  | Push of int
  | Pop
  | Enq of int
  | Deq
  | TryPush of int
  | TryPop
  | Add of int
  | Remove of int
  | Mem of int
  | Write of int
  | Read
  | Update of int * int
  | Scan
  | Section

type res = Unit | Bool of bool | Int of int | Opt of int option | Arr of int list

let pp_op fmt = function
  | Push v -> Format.fprintf fmt "push %d" v
  | Pop -> Format.pp_print_string fmt "pop"
  | Enq v -> Format.fprintf fmt "enqueue %d" v
  | Deq -> Format.pp_print_string fmt "dequeue"
  | TryPush v -> Format.fprintf fmt "try_push %d" v
  | TryPop -> Format.pp_print_string fmt "try_pop"
  | Add k -> Format.fprintf fmt "add %d" k
  | Remove k -> Format.fprintf fmt "remove %d" k
  | Mem k -> Format.fprintf fmt "mem %d" k
  | Write v -> Format.fprintf fmt "write %d" v
  | Read -> Format.pp_print_string fmt "read"
  | Update (i, v) -> Format.fprintf fmt "update[%d] %d" i v
  | Scan -> Format.pp_print_string fmt "scan"
  | Section -> Format.pp_print_string fmt "section"

let pp_res fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Bool b -> Format.pp_print_bool fmt b
  | Int n -> Format.pp_print_int fmt n
  | Opt None -> Format.pp_print_string fmt "None"
  | Opt (Some v) -> Format.fprintf fmt "Some %d" v
  | Arr l ->
    Format.fprintf fmt "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
         Format.pp_print_int)
      l

(* --- sequential specifications --------------------------------------- *)

let spec name init apply : ('s, op, res) History.spec =
  History.det ~name ~init ~apply ~equal_res:( = ) ~pp_op ~pp_res

let bad_op name o =
  invalid_arg (Format.asprintf "%s spec: unexpected op %a" name pp_op o)

let queue_spec =
  spec "fifo queue"
    (fun () -> [])
    (fun s o ->
      match o with
      | Enq v -> (s @ [ v ], Unit)
      | Deq -> (
        match s with [] -> (s, Opt None) | x :: tl -> (tl, Opt (Some x)))
      | o -> bad_op "queue" o)

let stack_spec =
  spec "lifo stack"
    (fun () -> [])
    (fun s o ->
      match o with
      | Push v -> (v :: s, Unit)
      | Pop -> (
        match s with [] -> (s, Opt None) | x :: tl -> (tl, Opt (Some x)))
      | o -> bad_op "stack" o)

(* The Vyukov ring is FIFO and loses nothing, but its failure results
   are best-effort: try_pop may report empty (and try_push full) while
   another producer/consumer has claimed a slot and not yet published
   it — the checker found exactly that interleaving when this spec was
   written deterministically. So failures are always legal (a relation,
   not a function); successes must still be exact FIFO within
   capacity, and the audit drain still pins that nothing is lost or
   duplicated. *)
let ring_spec ~capacity : (int list, op, res) History.spec =
  {
    name = "bounded fifo (best-effort failure)";
    init = (fun () -> []);
    step =
      (fun s o r ->
        match (o, r) with
        | TryPush _, Bool false -> Some s
        | TryPush v, Bool true ->
          if List.length s >= capacity then None else Some (s @ [ v ])
        | TryPop, Opt None -> Some s
        | TryPop, Opt (Some v) -> (
          match s with x :: tl when x = v -> Some tl | _ -> None)
        | o, _ -> bad_op "ring" o);
    pp_op;
    pp_res;
  }

let set_spec =
  spec "int set"
    (fun () -> [])
    (fun s o ->
      match o with
      | Add k -> if List.mem k s then (s, Bool false) else (k :: s, Bool true)
      | Remove k ->
        if List.mem k s then (List.filter (( <> ) k) s, Bool true)
        else (s, Bool false)
      | Mem k -> (s, Bool (List.mem k s))
      | o -> bad_op "set" o)

let register_spec ~init =
  spec "atomic register"
    (fun () -> init)
    (fun s o ->
      match o with
      | Write v -> (v, Unit)
      | Read -> (s, Int s)
      | o -> bad_op "register" o)

(* For the torn-write demo: reads observe both cells of the register,
   so the spec answers [Arr [v; v]] — a torn pair matches nothing. *)
let pair_register_spec ~init =
  spec "atomic register (pair view)"
    (fun () -> init)
    (fun s o ->
      match o with
      | Write v -> (v, Unit)
      | Read -> (s, Arr [ s; s ])
      | o -> bad_op "register" o)

(* Spin locks: each [Section] acquires, increments a lock-protected
   counter, releases, and reports [ranks @ [counter]] — the handle's
   request/grant ranks plus the counter value it observed. The i-th
   linearized section must see every one of those equal to [i]:
   counter = i pins mutual exclusion (no lost or duplicated
   increments), rank = i pins FIFO fairness (granted in request
   order). The audit [Read] pins the final counter. *)
let fifo_lock_spec : (int, op, res) History.spec =
  {
    name = "FIFO spin lock (ranked critical sections)";
    init = (fun () -> 0);
    step =
      (fun i o r ->
        match (o, r) with
        | Section, Arr ranks ->
          if ranks <> [] && List.for_all (( = ) i) ranks then Some (i + 1)
          else None
        | Read, Int n -> if n = i then Some i else None
        | o, _ -> bad_op "spin_lock" o);
    pp_op;
    pp_res;
  }

let snapshot_spec ~n ~init =
  spec "atomic snapshot"
    (fun () -> List.init n (fun _ -> init))
    (fun s o ->
      match o with
      | Update (i, v) -> (List.mapi (fun j x -> if j = i then v else x) s, Unit)
      | Scan -> (s, Arr s)
      | o -> bad_op "snapshot" o)

(* --- instrumented instances ------------------------------------------ *)

module CQ = Rtlf_lockfree.Ms_queue.Make (Shim.Atomic)
module CS = Rtlf_lockfree.Treiber_stack.Make (Shim.Atomic)
module CSet = Rtlf_lockfree.Lf_set.Make (Shim.Atomic)
module CReg = Rtlf_lockfree.Nbw_register.Make (Shim.Atomic)
module CFour = Rtlf_lockfree.Four_slot.Make (Shim.Atomic)
module CRing = Rtlf_lockfree.Ring_buffer.Make (Shim.Atomic)
module CSnap = Rtlf_lockfree.Snapshot.Make (Shim.Atomic)
module CLQ = Rtlf_lockfree.Lock_queue.Make (Shim.Mutex)
module CLS = Rtlf_lockfree.Lock_stack.Make (Shim.Mutex)
module CTicket = Rtlf_lockfree.Ticket_lock.Make (Shim.Atomic) (Shim.Spin_wait)
module CMcs = Rtlf_lockfree.Mcs_lock.Make (Shim.Atomic) (Shim.Spin_wait)
module BStack = Buggy.Stack (Shim.Atomic)
module BReg = Buggy.Register (Shim.Atomic)
module BTicket = Buggy.Ticket_lock (Shim.Atomic) (Shim.Spin_wait)

type instance = {
  exec : op -> res;
  invariant : unit -> string option;
      (* sampled (quietly) after every completed op *)
}

(* Lock-freedom is partially observable inside the checker as retry
   accounting: counters must never decrease, and an execution that
   exceeds the fair-schedule step budget is reported by the scheduler
   itself. *)
let monotone_retries label read =
  let last = ref 0 in
  fun () ->
    let r = read () in
    if r < !last then
      Some
        (Printf.sprintf "%s retry counter decreased: %d -> %d" label !last r)
    else begin
      last := r;
      None
    end

let no_invariant () = None

(* --- program generation helpers -------------------------------------- *)

let count_ops p ops =
  Array.fold_left
    (fun acc l -> acc + List.length (List.filter p l))
    0 ops

(* Drain audits run one more removal than there were insertions, so the
   history also pins that the structure ends empty of lost elements. *)
let drain_audit ~ins ~take ops = List.init (count_ops ins ops + 1) (fun _ -> take)

let fresh_value =
  (* Values unique per generated program make counterexamples readable
     and linearization search unambiguous. *)
  let mk ctr () =
    incr ctr;
    !ctr
  in
  fun () -> mk (ref 0)

let gen_threads g ~lo ~hi ~ops_per_thread ~gen_op =
  let n = Prng.int_in g ~lo ~hi in
  Array.init n (fun t ->
      let k = Prng.int_in g ~lo:1 ~hi:ops_per_thread in
      List.init k (fun _ -> gen_op t))

(* --- defs -------------------------------------------------------------- *)

type def = {
  name : string;
  descr : string;
  demo : bool;
  make : unit -> instance;
  lin : (op, res) History.call list -> bool;
  audit_of : op list array -> op list;
  smoke : op list array list;
  gen : Prng.t -> op list array;
}

let name d = d.name
let demo d = d.demo
let descr d = d.descr

let queue_like name descr make =
  {
    name;
    descr;
    demo = false;
    make;
    lin = History.linearizable queue_spec;
    audit_of =
      drain_audit ~ins:(function Enq _ -> true | _ -> false) ~take:Deq;
    smoke =
      [
        [| [ Enq 1; Deq ]; [ Enq 2; Deq ] |];
        [| [ Enq 1; Enq 2 ]; [ Deq; Deq ] |];
        [| [ Enq 1 ]; [ Enq 2 ]; [ Deq; Deq ] |];
      ];
    gen =
      (fun g ->
        let v = fresh_value () in
        gen_threads g ~lo:2 ~hi:3 ~ops_per_thread:3 ~gen_op:(fun _ ->
            if Prng.bool g then Enq (v ()) else Deq));
  }

let stack_like name descr make =
  {
    name;
    descr;
    demo = false;
    make;
    lin = History.linearizable stack_spec;
    audit_of =
      drain_audit ~ins:(function Push _ -> true | _ -> false) ~take:Pop;
    smoke =
      [
        [| [ Push 1; Pop ]; [ Push 2; Pop ] |];
        [| [ Push 1; Push 2 ]; [ Pop; Pop ] |];
        [| [ Push 1 ]; [ Push 2 ]; [ Pop; Pop ] |];
      ];
    gen =
      (fun g ->
        let v = fresh_value () in
        gen_threads g ~lo:2 ~hi:3 ~ops_per_thread:3 ~gen_op:(fun _ ->
            if Prng.bool g then Push (v ()) else Pop));
  }

let ms_queue_def =
  queue_like "ms_queue" "Michael–Scott two-lock-free FIFO queue" (fun () ->
      let q = CQ.create () in
      {
        exec =
          (function
          | Enq v ->
            CQ.enqueue q v;
            Unit
          | Deq -> Opt (CQ.dequeue q)
          | o -> bad_op "ms_queue" o);
        invariant = monotone_retries "ms_queue" (fun () -> CQ.retries q);
      })

let treiber_def =
  stack_like "treiber_stack" "Treiber CAS-loop LIFO stack" (fun () ->
      let s = CS.create () in
      {
        exec =
          (function
          | Push v ->
            CS.push s v;
            Unit
          | Pop -> Opt (CS.pop s)
          | o -> bad_op "treiber_stack" o);
        invariant = monotone_retries "treiber_stack" (fun () -> CS.retries s);
      })

let lock_queue_def =
  queue_like "lock_queue" "mutex-protected FIFO queue (baseline)" (fun () ->
      let q = CLQ.create () in
      {
        exec =
          (function
          | Enq v ->
            CLQ.enqueue q v;
            Unit
          | Deq -> Opt (CLQ.dequeue q)
          | o -> bad_op "lock_queue" o);
        invariant = no_invariant;
      })

let lock_stack_def =
  stack_like "lock_stack" "mutex-protected LIFO stack (baseline)" (fun () ->
      let s = CLS.create () in
      {
        exec =
          (function
          | Push v ->
            CLS.push s v;
            Unit
          | Pop -> Opt (CLS.pop s)
          | o -> bad_op "lock_stack" o);
        invariant = no_invariant;
      })

let set_keys = [ 0; 1; 2; 3 ]

let lf_set_def =
  {
    name = "lf_set";
    descr = "Harris–Michael sorted-list set";
    demo = false;
    make =
      (fun () ->
        let s = CSet.create () in
        {
          exec =
            (function
            | Add k -> Bool (CSet.add s k)
            | Remove k -> Bool (CSet.remove s k)
            | Mem k -> Bool (CSet.mem s k)
            | o -> bad_op "lf_set" o);
          invariant = no_invariant;
        });
    lin = History.linearizable set_spec;
    audit_of = (fun _ -> List.map (fun k -> Mem k) set_keys);
    smoke =
      [
        [| [ Add 1; Remove 1 ]; [ Add 1; Mem 1 ] |];
        [| [ Add 1; Add 2 ]; [ Remove 1; Mem 2 ] |];
        [| [ Add 1 ]; [ Remove 1 ]; [ Add 1; Mem 1 ] |];
      ];
    gen =
      (fun g ->
        gen_threads g ~lo:2 ~hi:3 ~ops_per_thread:3 ~gen_op:(fun _ ->
            let k = Prng.int g ~bound:(List.length set_keys) in
            match Prng.int g ~bound:3 with
            | 0 -> Add k
            | 1 -> Remove k
            | _ -> Mem k));
  }

(* Single-writer structures: thread 0 writes, the rest read. *)
let nbw_register_def =
  {
    name = "nbw_register";
    descr = "Kopetz–Reinisch NBW versioned register (single writer)";
    demo = false;
    make =
      (fun () ->
        let r = CReg.create 0 in
        let retries = ref 0 in
        {
          exec =
            (function
            | Write v ->
              CReg.write r v;
              Unit
            | Read ->
              let v, k = CReg.read_with_retries r in
              retries := !retries + k;
              Int v
            | o -> bad_op "nbw_register" o);
          invariant = monotone_retries "nbw_register" (fun () -> !retries);
        });
    lin = History.linearizable (register_spec ~init:0);
    audit_of = (fun _ -> [ Read ]);
    smoke =
      [
        [| [ Write 1; Write 2 ]; [ Read; Read ] |];
        [| [ Write 1; Write 2; Write 3 ]; [ Read ]; [ Read ] |];
      ];
    gen =
      (fun g ->
        let v = fresh_value () in
        let readers = Prng.int_in g ~lo:1 ~hi:2 in
        Array.init (1 + readers) (fun t ->
            if t = 0 then
              List.init (Prng.int_in g ~lo:1 ~hi:3) (fun _ -> Write (v ()))
            else List.init (Prng.int_in g ~lo:1 ~hi:2) (fun _ -> Read)));
  }

let four_slot_def =
  {
    name = "four_slot";
    descr = "Simpson four-slot wait-free register (1 writer, 1 reader)";
    demo = false;
    make =
      (fun () ->
        let r = CFour.create 0 in
        {
          exec =
            (function
            | Write v ->
              CFour.write r v;
              Unit
            | Read -> Int (CFour.read r)
            | o -> bad_op "four_slot" o);
          invariant = no_invariant;
        });
    lin = History.linearizable (register_spec ~init:0);
    audit_of = (fun _ -> [ Read ]);
    smoke =
      [
        [| [ Write 1; Write 2 ]; [ Read; Read ] |];
        [| [ Write 1; Write 2; Write 3 ]; [ Read; Read; Read ] |];
      ];
    gen =
      (fun g ->
        let v = fresh_value () in
        [|
          List.init (Prng.int_in g ~lo:1 ~hi:3) (fun _ -> Write (v ()));
          List.init (Prng.int_in g ~lo:1 ~hi:3) (fun _ -> Read);
        |]);
  }

let ring_capacity = 2

let ring_buffer_def =
  {
    name = "ring_buffer";
    descr = "Vyukov bounded MPMC ring buffer";
    demo = false;
    make =
      (fun () ->
        let r = CRing.create ~capacity:ring_capacity in
        {
          exec =
            (function
            | TryPush v -> Bool (CRing.try_push r v)
            | TryPop -> Opt (CRing.try_pop r)
            | o -> bad_op "ring_buffer" o);
          invariant = monotone_retries "ring_buffer" (fun () -> CRing.retries r);
        });
    lin = History.linearizable (ring_spec ~capacity:ring_capacity);
    audit_of =
      drain_audit ~ins:(function TryPush _ -> true | _ -> false) ~take:TryPop;
    smoke =
      [
        [| [ TryPush 1; TryPop ]; [ TryPush 2; TryPop ] |];
        [| [ TryPush 1; TryPush 2; TryPush 3 ]; [ TryPop; TryPop ] |];
      ];
    gen =
      (fun g ->
        let v = fresh_value () in
        gen_threads g ~lo:2 ~hi:3 ~ops_per_thread:3 ~gen_op:(fun _ ->
            if Prng.bool g then TryPush (v ()) else TryPop));
  }

let snapshot_components = 2

let snapshot_def =
  {
    name = "snapshot";
    descr = "double-collect atomic snapshot (one writer per component)";
    demo = false;
    make =
      (fun () ->
        let s = CSnap.create ~n:snapshot_components ~init:0 in
        let retries = ref 0 in
        {
          exec =
            (function
            | Update (i, v) ->
              CSnap.update s ~i v;
              Unit
            | Scan ->
              let a, k = CSnap.scan_with_retries s in
              retries := !retries + k;
              Arr (Array.to_list a)
            | o -> bad_op "snapshot" o);
          invariant = monotone_retries "snapshot" (fun () -> !retries);
        });
    lin = History.linearizable (snapshot_spec ~n:snapshot_components ~init:0);
    audit_of = (fun _ -> [ Scan ]);
    smoke =
      [
        [| [ Update (0, 1); Update (0, 2) ]; [ Update (1, 5); Scan ] |];
        [| [ Update (0, 1) ]; [ Update (1, 2) ]; [ Scan; Scan ] |];
      ];
    gen =
      (fun g ->
        let v = fresh_value () in
        (* Component i is written only by thread i (the structure is
           single-writer per component); an optional extra thread only
           scans. *)
        let scanner = Prng.bool g in
        let n = snapshot_components + if scanner then 1 else 0 in
        Array.init n (fun t ->
            if t < snapshot_components then
              List.init (Prng.int_in g ~lo:1 ~hi:2) (fun _ ->
                  if Prng.bool g then Update (t, v ()) else Scan)
            else List.init (Prng.int_in g ~lo:1 ~hi:2) (fun _ -> Scan)));
  }

(* One def shape for all three spin-lock targets: only the [Section]
   body differs. *)
let spin_lock_like name descr exec_section =
  {
    name;
    descr;
    demo = false;
    make =
      (fun () ->
        let section, read_counter = exec_section () in
        {
          exec =
            (function
            | Section -> section ()
            | Read -> Int (read_counter ())
            | o -> bad_op name o);
          invariant = no_invariant;
        });
    lin = History.linearizable fifo_lock_spec;
    audit_of = (fun _ -> [ Read ]);
    smoke =
      [
        [| [ Section ]; [ Section ] |];
        [| [ Section; Section ]; [ Section ] |];
        [| [ Section ]; [ Section ]; [ Section ] |];
      ];
    gen =
      (fun g ->
        gen_threads g ~lo:2 ~hi:3 ~ops_per_thread:2 ~gen_op:(fun _ -> Section));
  }

let ticket_lock_def =
  spin_lock_like "ticket_lock"
    "ticket spin lock (FAA dispenser + serving counter, FIFO)" (fun () ->
      let l = CTicket.create () in
      let c = Shim.Atomic.make 0 in
      ( (fun () ->
          let h = CTicket.acquire l in
          let v = Shim.Atomic.get c in
          Shim.Atomic.set c (v + 1);
          CTicket.release l h;
          Arr [ CTicket.request_order h; CTicket.grant_order h; v ]),
        fun () -> Shim.Atomic.get c ))

let mcs_lock_def =
  spin_lock_like "mcs_lock"
    "MCS queue spin lock (local spinning, FIFO hand-over)" (fun () ->
      let l = CMcs.create () in
      let c = Shim.Atomic.make 0 in
      ( (fun () ->
          let h = CMcs.acquire l in
          let v = Shim.Atomic.get c in
          Shim.Atomic.set c (v + 1);
          CMcs.release l h;
          Arr [ CMcs.request_order h; CMcs.grant_order h; v ]),
        fun () -> Shim.Atomic.get c ))

let buggy_ticket_lock_def =
  let base =
    spin_lock_like "buggy_ticket_lock"
      "DEMO: ticket lock with get/set dispensing — duplicate tickets admit \
       two sections at once"
      (fun () ->
        let l = BTicket.create () in
        let c = Shim.Atomic.make 0 in
        ( (fun () ->
            let h = BTicket.acquire l in
            let v = Shim.Atomic.get c in
            Shim.Atomic.set c (v + 1);
            BTicket.release l h;
            Arr [ BTicket.request_order h; BTicket.grant_order h; v ]),
          fun () -> Shim.Atomic.get c ))
  in
  { base with demo = true }

let buggy_stack_def =
  let base =
    stack_like "buggy_stack"
      "DEMO: stack with get/set instead of CAS — loses pushes, duplicates pops"
      (fun () ->
        let s = BStack.create () in
        {
          exec =
            (function
            | Push v ->
              BStack.push s v;
              Unit
            | Pop -> Opt (BStack.pop s)
            | o -> bad_op "buggy_stack" o);
          invariant = no_invariant;
        })
  in
  { base with demo = true }

let buggy_register_def =
  {
    name = "buggy_register";
    descr = "DEMO: register stored as two cells — readers observe torn writes";
    demo = true;
    make =
      (fun () ->
        let r = BReg.create 0 in
        {
          exec =
            (function
            | Write v ->
              BReg.write r v;
              Unit
            | Read ->
              let h, l = BReg.read r in
              Arr [ h; l ]
            | o -> bad_op "buggy_register" o);
          invariant = no_invariant;
        });
    lin = History.linearizable (pair_register_spec ~init:0);
    audit_of = (fun _ -> [ Read ]);
    smoke = [ [| [ Write 1; Write 2 ]; [ Read; Read ] |] ];
    gen =
      (fun g ->
        let v = fresh_value () in
        [|
          List.init (Prng.int_in g ~lo:1 ~hi:2) (fun _ -> Write (v ()));
          List.init (Prng.int_in g ~lo:1 ~hi:2) (fun _ -> Read);
        |]);
  }

let all =
  [
    ms_queue_def;
    treiber_def;
    lf_set_def;
    nbw_register_def;
    four_slot_def;
    ring_buffer_def;
    snapshot_def;
    lock_queue_def;
    lock_stack_def;
    ticket_lock_def;
    mcs_lock_def;
    buggy_stack_def;
    buggy_register_def;
    buggy_ticket_lock_def;
  ]

let find n = List.find_opt (fun d -> d.name = n) all

(* --- running one program under the explorer --------------------------- *)

type fail = { reason : string; calls : (op, res) History.call list }

let max_steps = 4000

(* The {!Sched.case} of one program: thread [i] runs [ops.(i)] on a
   fresh instance; the verdict stamps every completed op into a
   history, appends sequential audit ops, and consults the
   linearizability oracle plus retry-monotonicity invariants. *)
let case_of (def : def) ~(ops : op list array) : fail Sched.case =
 fun () ->
  let inst = def.make () in
  let seq = ref 0 in
  let next () =
    incr seq;
    !seq
  in
  let calls = ref [] in
  let inv_fail = ref None in
  let record thread o =
    Sched.note (Format.asprintf "begin %a" pp_op o);
    let inv = next () in
    let res = inst.exec o in
    let ret = next () in
    Sched.note (Format.asprintf "end   %a = %a" pp_op o pp_res res);
    calls := { History.thread; op = o; res; inv; ret } :: !calls;
    match Sched.quietly inst.invariant with
    | Some m when !inv_fail = None -> inv_fail := Some m
    | _ -> ()
  in
  let threads = Array.mapi (fun i l () -> List.iter (record i) l) ops in
  let verdict (outcome : Sched.outcome) =
    let finish reason = Some { reason; calls = List.rev !calls } in
    match (outcome.failure, !inv_fail) with
    | Some f, _ -> finish f
    | None, Some m -> finish m
    | None, None ->
      (* The schedule is over; audit ops run sequentially (thread id =
         number of program threads) and join the history, so the oracle
         also pins the final state: lost or duplicated elements that no
         in-schedule op happened to observe still fail here. *)
      List.iter (record (Array.length ops)) (def.audit_of ops);
      (match !inv_fail with
      | Some m -> finish m
      | None ->
        if def.lin (List.rev !calls) then None
        else finish "history is not linearizable against the sequential spec")
  in
  (threads, verdict)

(* --- reports and counterexamples -------------------------------------- *)

type counterexample = {
  structure : string;
  reason : string;
  ops : op list array;
  outcome : Sched.outcome;
  calls : (op, res) History.call list;
}

type report = {
  name : string;
  cases : int;
  execs : int;
  counterexample : counterexample option;
}

(* Re-find a failure on a (possibly smaller) program, preferring
   low-preemption exhaustive schedules so the final counterexample has
   as few context switches as possible; fall back to seeded-random for
   failures that need deeper schedules. *)
let discover def ~budget ~seed ops =
  let case = case_of def ~ops in
  let exhaust b =
    match
      Sched.explore
        ~mode:(Exhaustive { max_preemptions = b; max_execs = budget })
        ~max_steps case
    with
    | _, Some { outcome; verdict } -> Some (outcome, verdict)
    | _, None -> None
  in
  let random () =
    match
      Sched.explore ~mode:(Random { rounds = budget; seed }) ~max_steps case
    with
    | _, Some { outcome; verdict } -> Some (outcome, verdict)
    | _, None -> None
  in
  let rec first = function
    | [] -> random ()
    | b :: rest -> ( match exhaust b with Some r -> Some r | None -> first rest)
  in
  first [ 0; 1; 2; 3 ]

let shrink def ~fast ~seed ops outcome (f : fail) =
  let budget = if fast then 800 else 3000 in
  let fails ops' =
    if Array.length ops' = 0 then None
    else discover def ~budget ~seed ops'
  in
  (* Normalise first: even if no op can be dropped, re-discovery finds
     the minimal-preemption schedule for the same failure. *)
  let start = match fails ops with Some r -> r | None -> (outcome, f) in
  let ops, (outcome, f) =
    Shrink.minimise ~fails ~smaller:Shrink.drop_one ops start
  in
  { structure = def.name; reason = f.reason; ops; outcome; calls = f.calls }

let run def ~fast ~seed =
  let bound = if fast then 2 else 3 in
  let exhaustive_execs = if fast then 3_000 else 20_000 in
  let random_cases = if fast then 25 else 120 in
  let rounds_per_case = if fast then 60 else 250 in
  let execs = ref 0 in
  let cases = ref 0 in
  let cx = ref None in
  let fail_on ops outcome verdict =
    cx := Some (shrink def ~fast ~seed ops outcome verdict)
  in
  List.iter
    (fun ops ->
      if !cx = None then begin
        incr cases;
        let n, found =
          Sched.explore
            ~mode:
              (Exhaustive { max_preemptions = bound; max_execs = exhaustive_execs })
            ~max_steps (case_of def ~ops)
        in
        execs := !execs + n;
        match found with
        | Some { Sched.outcome; verdict } -> fail_on ops outcome verdict
        | None -> ()
      end)
    def.smoke;
  let g = Prng.create ~seed in
  for _ = 1 to random_cases do
    if !cx = None then begin
      incr cases;
      let ops = def.gen g in
      let case_seed = Prng.int g ~bound:0x3FFFFFFF in
      let n, found =
        Sched.explore
          ~mode:(Random { rounds = rounds_per_case; seed = case_seed })
          ~max_steps (case_of def ~ops)
      in
      execs := !execs + n;
      match found with
      | Some { Sched.outcome; verdict } -> fail_on ops outcome verdict
      | None -> ()
    end
  done;
  { name = def.name; cases = !cases; execs = !execs; counterexample = !cx }

let replay (cx : counterexample) =
  match find cx.structure with
  | None -> false
  | Some def ->
    let _, v =
      Sched.replay ~max_steps (case_of def ~ops:cx.ops)
        ~choices:cx.outcome.choices
    in
    Option.is_some v

(* --- rendering --------------------------------------------------------- *)

let pp_program fmt ops =
  Array.iteri
    (fun i l ->
      Format.fprintf fmt "  T%d: %a@,"
        i
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
           pp_op)
        l)
    ops

let pp_event fmt = function
  | Sched.Step { thread; op; preempt } ->
    Format.fprintf fmt "  %c T%d  %s@," (if preempt then '>' else ' ') thread op
  | Sched.Note { thread; text } ->
    Format.fprintf fmt "    T%d    . %s@," thread text

let pp_call n fmt (c : (op, res) History.call) =
  if c.thread >= n then
    Format.fprintf fmt "  audit: %a -> %a@," pp_op c.op pp_res c.res
  else
    Format.fprintf fmt "  T%d: %a -> %a@," c.thread pp_op c.op pp_res c.res

let pp_counterexample fmt (cx : counterexample) =
  let n = Array.length cx.ops in
  Format.fprintf fmt "@[<v>counterexample: %s@," cx.structure;
  Format.fprintf fmt "reason: %s@," cx.reason;
  Format.fprintf fmt "program (%d thread%s, minimised):@," n
    (if n = 1 then "" else "s");
  pp_program fmt cx.ops;
  Format.fprintf fmt
    "interleaving (%d steps, %d preemption%s; '>' marks a context switch):@,"
    cx.outcome.steps cx.outcome.preemptions
    (if cx.outcome.preemptions = 1 then "" else "s");
  List.iter (pp_event fmt) cx.outcome.events;
  Format.fprintf fmt "history (audit ops run sequentially after the schedule):@,";
  List.iter (pp_call n fmt) cx.calls;
  Format.fprintf fmt "replay choices: [%a]@]"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f ";")
       Format.pp_print_int)
    cx.outcome.choices

let pp_report fmt (r : report) =
  match r.counterexample with
  | None ->
    Format.fprintf fmt "%-16s ok    (%d programs, %d executions)" r.name
      r.cases r.execs
  | Some cx ->
    Format.fprintf fmt "%-16s FAIL  (%d programs, %d executions)@.%a" r.name
      r.cases r.execs pp_counterexample cx
