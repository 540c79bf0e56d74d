(* Classic array-backed binary min-heap. Ties on [time] are broken by a
   monotonically increasing sequence number so that simultaneous events
   dequeue in insertion order — required for deterministic replay. *)

type 'a cell = { time : int; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a cell array;
  mutable size : int;
  mutable next_seq : int;
}

(* Slots at indices >= size must never keep user payloads reachable: a
   popped event would otherwise stay live through the backing array for
   the rest of the run, and long-horizon simulations pop millions of
   them. All vacated/spare slots hold [sentinel], one statically
   allocated cell whose payload is an immediate; the [Obj.magic] is
   confined here and sound because every heap read is guarded by
   [size] — sentinel payloads are never returned. *)
let sentinel : Obj.t cell = { time = 0; seq = 0; payload = Obj.repr 0 }

let dummy_cell () : 'a cell = Obj.magic sentinel

let create () = { heap = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0
let length q = q.size

let cell_lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow q =
  let cap = Array.length q.heap in
  if q.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nheap = Array.make ncap (dummy_cell ()) in
    Array.blit q.heap 0 nheap 0 q.size;
    q.heap <- nheap
  end

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if cell_lt q.heap.(i) q.heap.(parent) then begin
      let tmp = q.heap.(i) in
      q.heap.(i) <- q.heap.(parent);
      q.heap.(parent) <- tmp;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < q.size && cell_lt q.heap.(left) q.heap.(!smallest) then
    smallest := left;
  if right < q.size && cell_lt q.heap.(right) q.heap.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = q.heap.(i) in
    q.heap.(i) <- q.heap.(!smallest);
    q.heap.(!smallest) <- tmp;
    sift_down q !smallest
  end

let add q ~time payload =
  let c = { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  grow q;
  q.heap.(q.size) <- c;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let peek q =
  if q.size = 0 then None
  else
    let c = q.heap.(0) in
    Some (c.time, c.payload)

let min_time q = if q.size = 0 then max_int else q.heap.(0).time

(* Remove the root cell and return it; [q] must not be empty. *)
let remove_min q =
  let c = q.heap.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    q.heap.(0) <- q.heap.(q.size);
    sift_down q 0
  end;
  q.heap.(q.size) <- dummy_cell ();
  c

let pop q =
  if q.size = 0 then None
  else
    let c = remove_min q in
    Some (c.time, c.payload)

let pop_payload q =
  if q.size = 0 then invalid_arg "Event_queue.pop_payload: empty queue";
  (remove_min q).payload

let to_list q =
  let cells = Array.sub q.heap 0 q.size in
  let order a b =
    match compare a.time b.time with 0 -> compare a.seq b.seq | c -> c
  in
  Array.sort order cells;
  Array.to_list (Array.map (fun c -> (c.time, c.payload)) cells)
