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

type storage =
  | Unbounded of {
      mutable arr : entry array; (* amortised doubling; [len] used *)
      mutable len : int;
    }
  | Ring of {
      buf : entry option array;
      mutable next : int; (* slot receiving the next write *)
      mutable len : int;
      mutable dropped : int;
    }

type t = { enabled : bool; storage : storage }

let create ?capacity ~enabled () =
  let storage =
    match capacity with
    | None -> Unbounded { arr = [||]; len = 0 }
    | Some c ->
      if c <= 0 then invalid_arg "Trace.create: capacity must be positive";
      Ring { buf = Array.make c None; next = 0; len = 0; dropped = 0 }
  in
  { enabled; storage }

let enabled tr = tr.enabled

let record tr ~time kind =
  if tr.enabled then
    match tr.storage with
    | Unbounded u ->
      let e = { time; kind } in
      let cap = Array.length u.arr in
      if u.len = cap then begin
        let grown = Array.make (if cap = 0 then 256 else 2 * cap) e in
        Array.blit u.arr 0 grown 0 u.len;
        u.arr <- grown
      end;
      u.arr.(u.len) <- e;
      u.len <- u.len + 1
    | Ring r ->
      let cap = Array.length r.buf in
      r.buf.(r.next) <- Some { time; kind };
      r.next <- (r.next + 1) mod cap;
      if r.len < cap then r.len <- r.len + 1
      else r.dropped <- r.dropped + 1

let entries tr =
  match tr.storage with
  | Unbounded u ->
    let acc = ref [] in
    for i = u.len - 1 downto 0 do
      acc := u.arr.(i) :: !acc
    done;
    !acc
  | Ring r ->
    let cap = Array.length r.buf in
    let start = (r.next - r.len + cap) mod cap in
    List.init r.len (fun i ->
        match r.buf.((start + i) mod cap) with
        | Some e -> e
        | None -> assert false)

let length tr =
  match tr.storage with Unbounded u -> u.len | Ring r -> r.len

let iter f tr =
  match tr.storage with
  | Unbounded u ->
    for i = 0 to u.len - 1 do
      f u.arr.(i)
    done
  | Ring r ->
    let cap = Array.length r.buf in
    let start = (r.next - r.len + cap) mod cap in
    for i = 0 to r.len - 1 do
      match r.buf.((start + i) mod cap) with
      | Some e -> f e
      | None -> assert false
    done

let dropped tr =
  match tr.storage with Unbounded _ -> 0 | Ring r -> r.dropped

let capacity tr =
  match tr.storage with
  | Unbounded _ -> None
  | Ring r -> Some (Array.length r.buf)

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
