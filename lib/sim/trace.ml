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

(* The first [Error] [check] returns on the history, in order. *)
let first_error tr check =
  let exception Bad of string in
  match
    iter (fun e -> match check e with Ok () -> () | Error m -> raise (Bad m)) tr
  with
  | () -> Ok ()
  | exception Bad m -> Error m

let check_mutual_exclusion tr =
  let owners = Hashtbl.create 8 in
  first_error tr (fun { time; kind } ->
      match kind with
      | Acquire (jid, obj) -> (
        match Hashtbl.find_opt owners obj with
        | Some holder when holder <> jid ->
          Error
            (Printf.sprintf
               "t=%d: J%d acquired object %d already held by J%d" time jid
               obj holder)
        | _ ->
          Hashtbl.replace owners obj jid;
          Ok ())
      | Release (jid, obj) -> (
        match Hashtbl.find_opt owners obj with
        | Some holder when holder = jid ->
          Hashtbl.remove owners obj;
          Ok ()
        | _ ->
          Error
            (Printf.sprintf "t=%d: J%d released object %d it did not hold"
               time jid obj))
      | Arrive _ | Start _ | Migrate _ | Preempt _ | Block _ | Wake _ | Retry _
      | Access_done _ | Complete _ | Abort _ | Sched _ ->
        Ok ())

let check_abort_releases tr =
  let held = Hashtbl.create 8 in
  (* jid -> obj list *)
  let holding jid =
    match Hashtbl.find_opt held jid with Some objs -> objs | None -> []
  in
  first_error tr (fun { time; kind } ->
      match kind with
      | Acquire (jid, obj) ->
        Hashtbl.replace held jid (obj :: holding jid);
        Ok ()
      | Release (jid, obj) ->
        Hashtbl.replace held jid (List.filter (( <> ) obj) (holding jid));
        Ok ()
      | Complete jid | Abort (jid, _) ->
        if holding jid <> [] then
          Error
            (Printf.sprintf "t=%d: J%d ended while holding %d object(s)"
               time jid
               (List.length (holding jid)))
        else Ok ()
      | Arrive _ | Start _ | Migrate _ | Preempt _ | Block _ | Wake _ | Retry _
      | Access_done _ | Sched _ ->
        Ok ())

let check_block_only_lock_based ~lock_based tr =
  if lock_based then Ok ()
  else
    first_error tr (fun { time; kind } ->
        match kind with
        | Block (jid, obj) ->
          Error
            (Printf.sprintf
               "t=%d: J%d blocked on object %d under non-lock-based sync"
               time jid obj)
        | Wake (jid, obj) ->
          Error
            (Printf.sprintf
               "t=%d: J%d woken with object %d under non-lock-based sync"
               time jid obj)
        | Arrive _ | Start _ | Migrate _ | Preempt _ | Acquire _ | Release _
        | Retry _ | Access_done _ | Complete _ | Abort _ | Sched _ ->
          Ok ())

let check_wake_follows_block tr =
  let blocked = Hashtbl.create 8 in
  (* jid -> obj it is currently blocked on *)
  first_error tr (fun { time; kind } ->
      match kind with
      | Block (jid, obj) ->
        if Hashtbl.mem blocked jid then
          Error
            (Printf.sprintf "t=%d: J%d blocked while already blocked" time
               jid)
        else begin
          Hashtbl.replace blocked jid obj;
          Ok ()
        end
      | Wake (jid, obj) -> (
        match Hashtbl.find_opt blocked jid with
        | Some o when o = obj ->
          Hashtbl.remove blocked jid;
          Ok ()
        | Some o ->
          Error
            (Printf.sprintf
               "t=%d: J%d woken with object %d while blocked on %d" time
               jid obj o)
        | None ->
          Error
            (Printf.sprintf
               "t=%d: J%d woken with object %d without a prior block" time
               jid obj))
      | Complete jid | Abort (jid, _) ->
        (* Aborting a blocked job legitimately ends its wait. *)
        Hashtbl.remove blocked jid;
        Ok ()
      | Arrive _ | Start _ | Migrate _ | Preempt _ | Acquire _ | Release _
      | Retry _ | Access_done _ | Sched _ ->
        Ok ())

let count tr pred =
  let n = ref 0 in
  iter (fun e -> if pred e.kind then incr n) tr;
  !n

let preemptions tr =
  count tr (function Preempt _ -> true | _ -> false)

let scheduler_invocations tr =
  count tr (function Sched _ -> true | _ -> false)
