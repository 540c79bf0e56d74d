module Job = Rtlf_model.Job

(* The simulator's live-job set, kept jid-sorted at all times so the
   scheduler view needs no per-invocation fold-and-sort. Jids are
   assigned monotonically, so [add] is an O(1) append in the common
   case; [remove] is a binary search plus shift. The scheduler-facing
   [view] is a trimmed copy rebuilt only when a dirty flag says the
   membership changed since the last invocation. *)

type t = {
  mutable buf : Job.t array; (* jid-sorted prefix [0, len) *)
  mutable len : int;
  mutable cache : Job.t array; (* trimmed snapshot handed to [view] *)
  mutable dirty : bool;
}

let create ?(capacity = 64) () =
  {
    buf = Array.make (max capacity 1) Job.dummy;
    len = 0;
    cache = [||];
    dirty = false;
  }

let count t = t.len

(* Index of the first slot whose jid is >= [jid]. *)
let lower_bound t jid =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.buf.(mid).Job.jid < jid then lo := mid + 1 else hi := mid
  done;
  !lo

let ensure_capacity t =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let nbuf = Array.make (cap * 2) Job.dummy in
    Array.blit t.buf 0 nbuf 0 t.len;
    t.buf <- nbuf
  end

let add t job =
  ensure_capacity t;
  let jid = job.Job.jid in
  if t.len = 0 || t.buf.(t.len - 1).Job.jid < jid then begin
    (* Monotone jids: the hot path. *)
    t.buf.(t.len) <- job;
    t.len <- t.len + 1
  end
  else begin
    let i = lower_bound t jid in
    if i < t.len && t.buf.(i).Job.jid = jid then
      invalid_arg "Live_view.add: duplicate jid";
    Array.blit t.buf i t.buf (i + 1) (t.len - i);
    t.buf.(i) <- job;
    t.len <- t.len + 1
  end;
  t.dirty <- true

let find t ~jid =
  let i = lower_bound t jid in
  if i < t.len && t.buf.(i).Job.jid = jid then Some t.buf.(i) else None

let remove t ~jid =
  let i = lower_bound t jid in
  if i < t.len && t.buf.(i).Job.jid = jid then begin
    Array.blit t.buf (i + 1) t.buf i (t.len - i - 1);
    t.len <- t.len - 1;
    t.buf.(t.len) <- Job.dummy;
    t.dirty <- true
  end

let view t =
  if t.dirty then begin
    t.cache <- Array.sub t.buf 0 t.len;
    t.dirty <- false
  end;
  t.cache
