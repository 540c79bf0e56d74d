(* The one record of who holds and who waits, on arrays sized once
   from the object registry. Per-job facts (what a job holds, what it
   waits for) are read off the per-object arrays: a run has few objects
   (the paper's 10), so a scan over them is short and leaves no second,
   jid-keyed copy to keep in step. *)
type t = {
  objects : Resource.t;
  owner : int array;          (* obj -> holder jid, -1 when free *)
  granted : int array;        (* obj -> stamp of its current grant *)
  mutable stamp : int;        (* last grant stamp issued *)
  queue : int array array;    (* obj -> waiting jids, FIFO from index 0 *)
  qlen : int array;           (* obj -> number of waiters *)
  mutable waiting : int;      (* waiters over all objects *)
}

type grant = Granted | Blocked_on of int

let create ~objects =
  let n = Resource.count objects in
  {
    objects;
    owner = Array.make n (-1);
    granted = Array.make n 0;
    stamp = 0;
    queue = Array.init n (fun _ -> Array.make 4 0);
    qlen = Array.make n 0;
    waiting = 0;
  }

let owner tbl ~obj =
  Resource.check tbl.objects obj;
  let holder = tbl.owner.(obj) in
  if holder < 0 then None else Some holder

(* Index of [jid] in [q.(i .. len-1)], or -1. *)
let rec index_from q jid i len =
  if i >= len then -1
  else if q.(i) = jid then i
  else index_from q jid (i + 1) len

(* The first object from [obj] on in whose queue [jid] waits, or -1. *)
let rec waited_from tbl jid obj =
  if obj >= Array.length tbl.owner then -1
  else if index_from tbl.queue.(obj) jid 0 tbl.qlen.(obj) >= 0 then obj
  else waited_from tbl jid (obj + 1)

let waited tbl jid = if tbl.waiting = 0 then -1 else waited_from tbl jid 0
let any_waiting tbl = tbl.waiting > 0

let waiting_for tbl ~jid =
  let obj = waited tbl jid in
  if obj < 0 then None else Some obj

let rec owns_from owner jid obj =
  obj >= 0 && (owner.(obj) = jid || owns_from owner jid (obj - 1))

let holds_any tbl ~jid =
  jid >= 0 && owns_from tbl.owner jid (Array.length tbl.owner - 1)

let holding tbl ~jid =
  let held = ref [] in
  Array.iteri (fun obj holder -> if holder = jid then held := obj :: !held)
    tbl.owner;
  List.sort (fun a b -> compare tbl.granted.(b) tbl.granted.(a)) !held

let waiters tbl ~obj =
  Resource.check tbl.objects obj;
  Array.to_list (Array.sub tbl.queue.(obj) 0 tbl.qlen.(obj))

let queue_length tbl ~obj =
  Resource.check tbl.objects obj;
  tbl.qlen.(obj)

let grant_to tbl ~jid ~obj =
  tbl.stamp <- tbl.stamp + 1;
  tbl.owner.(obj) <- jid;
  tbl.granted.(obj) <- tbl.stamp

let enqueue tbl ~jid ~obj =
  let len = tbl.qlen.(obj) in
  if len = Array.length tbl.queue.(obj) then begin
    let bigger = Array.make (2 * len) 0 in
    Array.blit tbl.queue.(obj) 0 bigger 0 len;
    tbl.queue.(obj) <- bigger
  end;
  tbl.queue.(obj).(len) <- jid;
  tbl.qlen.(obj) <- len + 1;
  tbl.waiting <- tbl.waiting + 1

let dequeue_at tbl ~obj i =
  let len = tbl.qlen.(obj) in
  Array.blit tbl.queue.(obj) (i + 1) tbl.queue.(obj) i (len - i - 1);
  tbl.qlen.(obj) <- len - 1;
  tbl.waiting <- tbl.waiting - 1

let request tbl ~jid ~obj =
  Resource.check tbl.objects obj;
  if jid < 0 then invalid_arg "Lock_manager.request: negative jid";
  let holder = tbl.owner.(obj) in
  if holder < 0 then begin
    grant_to tbl ~jid ~obj;
    Granted
  end
  else if holder = jid then Granted
  else begin
    enqueue tbl ~jid ~obj;
    Blocked_on holder
  end

let release tbl ~jid ~obj =
  Resource.check tbl.objects obj;
  if jid < 0 || tbl.owner.(obj) <> jid then
    invalid_arg
      (Printf.sprintf "Lock_manager.release: job %d does not hold %d" jid obj);
  if tbl.qlen.(obj) = 0 then begin
    tbl.owner.(obj) <- -1;
    None
  end
  else begin
    let next = tbl.queue.(obj).(0) in
    dequeue_at tbl ~obj 0;
    grant_to tbl ~jid:next ~obj;
    Some next
  end

let cancel_wait tbl ~jid =
  let obj = waited tbl jid in
  if obj >= 0 then
    dequeue_at tbl ~obj (index_from tbl.queue.(obj) jid 0 tbl.qlen.(obj))

let release_all tbl ~jid =
  cancel_wait tbl ~jid;
  List.map (fun obj -> (obj, release tbl ~jid ~obj)) (holding tbl ~jid)

(* The job [jid] waits on, through the object it waits for, or -1. *)
let blocker tbl jid =
  let obj = waited tbl jid in
  if obj < 0 then -1 else tbl.owner.(obj)

(* Follow jid -> waited object -> owner -> ... edges. The deepest owner
   is pushed last, so [acc] comes out head-first. *)
let rec walk tbl ~jid visited acc =
  if List.mem jid visited then acc
  else
    let holder = blocker tbl jid in
    if holder < 0 then jid :: acc
    else walk tbl ~jid:holder (jid :: visited) (jid :: acc)

let dependency_chain tbl ~jid = walk tbl ~jid [] []

let find_cycle tbl ~jid =
  let rec go j visited =
    let holder = blocker tbl j in
    if holder < 0 then None
    else if List.mem holder (j :: visited) then begin
      (* Cycle members: the suffix of the walk from [holder]. *)
      let rec suffix = function
        | [] -> []
        | x :: rest -> if x = holder then [ x ] else x :: suffix rest
      in
      Some (List.rev (suffix (j :: visited)))
    end
    else go holder (j :: visited)
  in
  go jid []

let blocked_jobs tbl =
  List.concat_map (fun obj -> waiters tbl ~obj)
    (List.init (Array.length tbl.owner) Fun.id)

let assert_consistent tbl =
  let total = ref 0 in
  Array.iteri
    (fun obj holder ->
      let len = tbl.qlen.(obj) in
      total := !total + len;
      assert (holder >= 0 || len = 0);
      for i = 0 to len - 1 do
        let jid = tbl.queue.(obj).(i) in
        (* A job waits in one queue, once, never on what it holds. *)
        assert (jid <> holder);
        assert (waited tbl jid = obj);
        assert (index_from tbl.queue.(obj) jid (i + 1) len < 0)
      done)
    tbl.owner;
  assert (!total = tbl.waiting)
