type kind =
  | Arrive of int * int * int
  | Start of int * int
  | Migrate of int * int * int
  | Preempt of int * int
  | Block of int * int
  | Wake of int * int
  | Acquire of int * int
  | Release of int * int
  | Retry of int * int * int * int
  | Access_done of int * int
  | Complete of int
  | Abort of int * int
  | Sched of int * int

type entry = { time : int; kind : kind }

(* The entries live in two parallel arrays, not an array of [entry]
   records: two words an entry fewer, and a record is built only when a
   reader asks for it. Each array is cut into chunks of [chunk_size]
   slots, allocated as the trace first reaches them, so a trace never
   copies what it holds. Slot [s] is entry [s land chunk_mask] of chunk
   [s lsr chunk_bits]. A bounded trace is a ring over [limit]
   (= capacity) slots, its last chunk cut short to fit, and drops the
   oldest entry once full; an unbounded one ([limit = max_int]) appends
   a chunk when full and never wraps, so its oldest entry stays at
   slot 0. *)
let chunk_bits = 12

let chunk_size = 1 lsl chunk_bits

let chunk_mask = chunk_size - 1

type t = {
  enabled : bool;
  bounded : bool;
  limit : int; (* slots in the ring; [max_int] when unbounded *)
  mutable times : int array array; (* chunk -> times *)
  mutable kinds : kind array array; (* chunk -> kinds *)
  mutable chunks : int; (* chunks allocated *)
  mutable next : int; (* slot receiving the next write *)
  mutable len : int;
  mutable dropped : int;
}

let create ?capacity ~enabled () =
  let limit =
    match capacity with
    | None -> max_int
    | Some c ->
      if c <= 0 then invalid_arg "Trace.create: capacity must be positive";
      c
  in
  {
    enabled;
    bounded = capacity <> None;
    limit;
    times = [||];
    kinds = [||];
    chunks = 0;
    next = 0;
    len = 0;
    dropped = 0;
  }

let enabled tr = tr.enabled

(* Allocate the chunk the next write starts. *)
let add_chunk tr =
  let c = tr.chunks in
  if c = Array.length tr.times then begin
    let spine = max 4 (2 * c) in
    let times = Array.make spine [||] and kinds = Array.make spine [||] in
    Array.blit tr.times 0 times 0 c;
    Array.blit tr.kinds 0 kinds 0 c;
    tr.times <- times;
    tr.kinds <- kinds
  end;
  let size = Int.min chunk_size (tr.limit - (c * chunk_size)) in
  tr.times.(c) <- Array.make size 0;
  tr.kinds.(c) <- Array.make size (Sched (0, 0));
  tr.chunks <- c + 1

let record tr ~time kind =
  if tr.enabled then begin
    let s = tr.next in
    let c = s lsr chunk_bits in
    if c = tr.chunks then add_chunk tr;
    tr.times.(c).(s land chunk_mask) <- time;
    tr.kinds.(c).(s land chunk_mask) <- kind;
    tr.next <- (if s + 1 = tr.limit then 0 else s + 1);
    if tr.len < tr.limit then tr.len <- tr.len + 1
    else tr.dropped <- tr.dropped + 1
  end

let length tr = tr.len

(* The [i]-th retained entry, oldest first. *)
let get tr i =
  let s = tr.next - tr.len + i in
  let s = if s < 0 then s + tr.limit else s in
  let c = s lsr chunk_bits and k = s land chunk_mask in
  { time = tr.times.(c).(k); kind = tr.kinds.(c).(k) }

let iter f tr =
  for i = 0 to tr.len - 1 do
    f (get tr i)
  done

let entries tr = List.init tr.len (get tr)

let dropped tr = tr.dropped

let capacity tr = if tr.bounded then Some tr.limit else None

(* --- the state a trace implies ------------------------------------------ *)

(* A core, an object or a migration target reads [-1] for none. *)
type job = {
  mutable task : int;
  mutable arrival : int;
  mutable core : int;
  mutable waits_on : int;
  mutable ended : bool;
  mutable last_core : int;
  mutable bound_for : int;
  mutable migrated_at : int;
}

(* Ids come unchecked from a CSV, so every map is a hash table: no
   array is sized by an id. *)
type walk = {
  spin : bool; (* a [Block] keeps the waiter on its core *)
  jobs : (int, job) Hashtbl.t;
  occupant : (int, int) Hashtbl.t; (* core -> jid *)
  holder : (int, int) Hashtbl.t; (* obj -> jid *)
  mutable steps : int;
}

let walk ?sync () =
  {
    spin = (match sync with Some (Sync.Spin _) -> true | _ -> false);
    jobs = Hashtbl.create 64;
    occupant = Hashtbl.create 4;
    holder = Hashtbl.create 8;
    steps = 0;
  }

let find w jid = Hashtbl.find_opt w.jobs jid

let fresh ended =
  { task = -1; arrival = -1; core = -1; waits_on = -1; ended; last_core = -1;
    bound_for = -1; migrated_at = -1 }

(* What an ended job leaves in [jobs]: its jid, so that the contract
   can reject a later entry naming it, but not its record, so that a
   long trace's walk holds the live jobs only. Never stepped. *)
let gone = fresh true

(* A job first named by any entry but its [Arrive] (a ring dropped the
   arrival), or named again after it ended, gets a fresh record:
   stepping never fails. *)
let job w jid =
  let j = try Hashtbl.find w.jobs jid with Not_found -> gone in
  if j != gone then j
  else begin
    let j = fresh false in
    Hashtbl.replace w.jobs jid j;
    j
  end

let arrive w ~jid ~task ~at =
  let j = job w jid in
  j.task <- task;
  j.arrival <- at;
  j

let lookup tbl k =
  match Hashtbl.find tbl k with v -> v | exception Not_found -> -1

let occupant w ~core = lookup w.occupant core

let holder w ~obj = lookup w.holder obj

let occupants w =
  List.sort compare (Hashtbl.fold (fun c jid l -> (c, jid) :: l) w.occupant [])

let vacate w j =
  if j.core >= 0 then begin
    Hashtbl.remove w.occupant j.core;
    j.core <- -1
  end

let step w { kind; _ } =
  (match kind with
  | Arrive (jid, task, at) -> ignore (arrive w ~jid ~task ~at)
  | Start (jid, core) ->
    let j = job w jid and o = occupant w ~core in
    if o >= 0 then vacate w (job w o);
    vacate w j;
    j.bound_for <- -1;
    j.core <- core;
    j.last_core <- core;
    Hashtbl.replace w.occupant core jid
  | Migrate (jid, _, to_c) ->
    let j = job w jid in
    j.bound_for <- to_c;
    j.migrated_at <- w.steps
  | Preempt (jid, _) -> vacate w (job w jid)
  | Block (jid, obj) ->
    let j = job w jid in
    j.waits_on <- obj;
    if not w.spin then vacate w j
  | Wake (jid, _) -> (job w jid).waits_on <- -1
  | Acquire (jid, obj) -> Hashtbl.replace w.holder obj jid
  | Release (_, obj) -> Hashtbl.remove w.holder obj
  | Complete jid | Abort (jid, _) ->
    (* Aborting a waiter ends its wait. A migration it never consumed
       stays on record for the contract to report. *)
    let j = job w jid in
    j.waits_on <- -1;
    vacate w j;
    j.ended <- true;
    if j.bound_for < 0 then Hashtbl.replace w.jobs jid gone
  | Retry _ | Access_done _ | Sched _ -> ());
  w.steps <- w.steps + 1

(* --- the trace contract (DESIGN.md) -------------------------------------- *)

exception Violation of int * string

let violation ?sync tr =
  (* Without the discipline, Block and Wake are legal. *)
  let lock_events = Option.fold ~none:true ~some:Sync.uses_lock_events sync in
  let w = walk ?sync () in
  let prev = ref min_int in
  let check_entry i ({ time; kind } as e) =
    let fail fmt =
      Printf.ksprintf
        (fun m -> raise (Violation (i, Printf.sprintf "t=%d: %s" time m)))
        fmt
    in
    if time < !prev then fail "earlier than the previous entry's t=%d" !prev;
    prev := time;
    let live jid =
      match find w jid with
      | None -> fail "J%d never arrived" jid
      | Some j when j.ended -> fail "J%d already ended" jid
      | Some j -> j
    in
    (match kind with
    | Arrive (jid, _, at) ->
      if find w jid <> None then fail "J%d arrives twice" jid;
      if at > time then fail "J%d arrives at=%d, after the entry" jid at
    | Start (jid, core) ->
      let j = live jid in
      if j.core >= 0 then
        fail "J%d started on c%d while still occupying c%d" jid core j.core;
      let o = occupant w ~core in
      if o >= 0 then
        fail "J%d started on c%d while J%d still occupies it" jid core o;
      if j.bound_for >= 0 && j.bound_for <> core then
        fail "J%d migrated towards c%d but started on c%d" jid j.bound_for
          core
    | Migrate (jid, from_c, to_c) ->
      let j = live jid in
      if j.core >= 0 then
        fail "J%d migrated c%d->c%d while occupying c%d" jid from_c to_c
          j.core;
      if j.last_core < 0 then
        fail "J%d migrated c%d->c%d before ever running" jid from_c to_c;
      if j.last_core <> from_c then
        fail "J%d migrated from c%d but last ran on c%d" jid from_c
          j.last_core;
      if j.bound_for >= 0 then
        fail "J%d migrated towards c%d with a migration to c%d pending" jid
          to_c j.bound_for
    | Block (jid, obj) ->
      let j = live jid in
      if not lock_events then
        fail "J%d blocked on object %d under non-lock-based sync" jid obj;
      if j.waits_on >= 0 then fail "J%d blocked while already blocked" jid
    | Wake (jid, obj) ->
      let j = live jid in
      if not lock_events then
        fail "J%d woken with object %d under non-lock-based sync" jid obj;
      if j.waits_on < 0 then
        fail "J%d woken with object %d without a prior block" jid obj;
      if j.waits_on <> obj then
        fail "J%d woken with object %d while blocked on %d" jid obj
          j.waits_on
    | Acquire (jid, obj) ->
      let j = live jid in
      if j.waits_on >= 0 then
        fail "J%d acquired object %d while blocked on %d" jid obj j.waits_on;
      let h = holder w ~obj in
      if h >= 0 && h <> jid then
        fail "J%d acquired object %d already held by J%d" jid obj h
    | Release (jid, obj) ->
      ignore (live jid);
      if holder w ~obj <> jid then
        fail "J%d released object %d it did not hold" jid obj
    | Complete jid | Abort (jid, _) ->
      ignore (live jid);
      let holds =
        Hashtbl.fold (fun _ h n -> if h = jid then n + 1 else n) w.holder 0
      in
      if holds > 0 then fail "J%d ended while holding %d object(s)" jid holds
    | Preempt (jid, _) | Retry (jid, _, _, _) | Access_done (jid, _) ->
      ignore (live jid)
    | Sched _ -> ());
    step w e
  in
  try
    if tr.dropped > 0 then
      raise
        (Violation
           ( 0,
             Printf.sprintf "t=%d: the ring dropped %d earlier entries"
               (get tr 0).time tr.dropped ));
    for i = 0 to tr.len - 1 do
      check_entry i (get tr i)
    done;
    (* Every migration is consumed by its job's next [Start]. *)
    Hashtbl.fold
      (fun jid j first ->
        if j.bound_for < 0 then first
        else
          match first with
          | Some (i, _) when i < j.migrated_at -> first
          | _ ->
            Some
              ( j.migrated_at,
                Printf.sprintf
                  "t=%d: J%d migrated to c%d but never started there"
                  (get tr j.migrated_at).time jid j.bound_for ))
      w.jobs None
  with Violation (i, m) -> Some (i, m)

let check ?sync tr =
  Option.fold ~none:(Ok ()) ~some:(fun (_, m) -> Error m) (violation ?sync tr)

let count tr pred =
  let n = ref 0 in
  iter (fun e -> if pred e.kind then incr n) tr;
  !n
