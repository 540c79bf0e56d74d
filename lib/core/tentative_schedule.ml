(* Positions hold live ranks in flat int arrays reused across
   scheduler invocations. Speculative insertions (the greedy loop's
   candidate probes) are journalled as int triples and rolled back in
   place; [Reference.List_schedule], the list-based oracle, probes a
   deep copy instead. *)

type t = {
  mutable ops : int;
  mutable now : int;
  mutable rem : int array; (* rank -> remaining cost (caller's array) *)
  mutable act : int array; (* rank -> absolute critical time (caller's) *)
  mutable rank : int array; (* position -> rank, prefix [0, len) *)
  mutable eff_ct : int array; (* position -> effective critical time *)
  mutable len : int;
  mutable scheduled : bool array; (* rank -> present; answers [mem] *)
  mutable journal : int array; (* undo triples (pos, rank, eff_ct) *)
  mutable jlen : int; (* ints used in [journal] *)
  mutable recording : bool;
}

let create () =
  {
    ops = 0;
    now = 0;
    rem = [||];
    act = [||];
    rank = [||];
    eff_ct = [||];
    len = 0;
    scheduled = [||];
    journal = [||];
    jlen = 0;
    recording = false;
  }

let reset s ~now ~rem ~act ~n =
  (* Every set flag belongs to a scheduled rank: clearing those leaves
     the whole array false. *)
  for p = 0 to s.len - 1 do
    s.scheduled.(s.rank.(p)) <- false
  done;
  s.scheduled <- Scratch.ensure_bool n s.scheduled;
  s.rank <- Scratch.ensure n s.rank;
  s.eff_ct <- Scratch.ensure n s.eff_ct;
  (* One probe edits each chain member at most twice (remove and
     reinsert), and a chain holds at most n ranks. *)
  s.journal <- Scratch.ensure (6 * n) s.journal;
  s.ops <- 0;
  s.now <- now;
  s.rem <- rem;
  s.act <- act;
  s.len <- 0;
  s.jlen <- 0;
  s.recording <- false

let ops s = s.ops
let length s = s.len
let rank_at s p = s.rank.(p)
let eff_ct_at s p = s.eff_ct.(p)

let charge_ordered_op s = s.ops <- s.ops + Log2.ceil (s.len + 1)

(* --- physical array edits (journalled when speculating) -------------- *)

let shift_in s i r ect =
  Array.blit s.rank i s.rank (i + 1) (s.len - i);
  Array.blit s.eff_ct i s.eff_ct (i + 1) (s.len - i);
  s.rank.(i) <- r;
  s.eff_ct.(i) <- ect;
  s.scheduled.(r) <- true;
  s.len <- s.len + 1

let shift_out s i =
  s.scheduled.(s.rank.(i)) <- false;
  Array.blit s.rank (i + 1) s.rank i (s.len - i - 1);
  Array.blit s.eff_ct (i + 1) s.eff_ct i (s.len - i - 1);
  s.len <- s.len - 1

(* An insertion is journalled with rank -1; a removal with what it
   removed. *)
let record s i r ect =
  if s.recording then begin
    let j = s.journal and k = s.jlen in
    j.(k) <- i;
    j.(k + 1) <- r;
    j.(k + 2) <- ect;
    s.jlen <- k + 3
  end

let insert_at s i r ect =
  shift_in s i r ect;
  record s i (-1) 0

let remove_at s i =
  let r = s.rank.(i) and ect = s.eff_ct.(i) in
  shift_out s i;
  record s i r ect

(* Undoing most-recent-first keeps every recorded index valid at the
   moment it is replayed. *)
let rollback s =
  let j = s.journal in
  let k = ref (s.jlen - 3) in
  while !k >= 0 do
    let i = j.(!k) and r = j.(!k + 1) in
    if r < 0 then shift_out s i else shift_in s i r j.(!k + 2);
    k := !k - 3
  done;
  s.jlen <- 0

(* --- lookups and ordered operations ----------------------------------- *)

let index_of s r =
  let p = ref 0 in
  while !p < s.len && s.rank.(!p) <> r do
    incr p
  done;
  if !p < s.len then !p else -1

let mem s ~rank =
  charge_ordered_op s;
  s.scheduled.(rank)

(* Insert at the last position whose predecessors all have eff_ct <=
   [ect] (stable ECF), but never later than [cap]. *)
let insert_at_ecf s r ect ~cap =
  charge_ordered_op s;
  let i = ref 0 in
  while !i < s.len && !i < cap && s.eff_ct.(!i) <= ect do
    incr i
  done;
  insert_at s !i r ect

let remove s r =
  charge_ordered_op s;
  let i = index_of s r in
  if i >= 0 then remove_at s i

(* §3.4.1: process the chain from tail (the examined job) to head. Each
   processed element must precede the previously processed one (its
   successor in execution order); clamp effective critical times when
   the ECF order disagrees with the dependency order. *)
let insert_chain s chain ~off ~len =
  let succ = ref (-1) in
  for k = off + len - 1 downto off do
    let r = chain.(k) in
    (if !succ < 0 then begin
       if not (mem s ~rank:r) then insert_at_ecf s r s.act.(r) ~cap:max_int
     end
     else begin
       let succ_pos = index_of s !succ in
       if succ_pos < 0 then
         invalid_arg "Tentative_schedule.insert_chain: broken";
       let succ_ct = s.eff_ct.(succ_pos) in
       let p = index_of s r in
       if p >= 0 && p < succ_pos then
         (* Already present and already before its successor: the
            dependency order holds (Figure 5, Case 1). *)
         charge_ordered_op s
       else if p >= 0 then begin
         (* Present but after the successor: remove, clamp, reinsert
            immediately before the successor (Figure 5, Case 2). *)
         remove s r;
         insert_at_ecf s r succ_ct ~cap:(index_of s !succ)
       end
       else insert_at_ecf s r (Int.min s.act.(r) succ_ct) ~cap:succ_pos
     end);
    succ := r
  done

let feasible s =
  s.ops <- s.ops + s.len;
  let time = ref s.now and p = ref 0 in
  while !p < s.len && !time + s.rem.(s.rank.(!p)) <= s.eff_ct.(!p) do
    time := !time + s.rem.(s.rank.(!p));
    incr p
  done;
  !p >= s.len

let try_insert_chain s chain ~off ~len =
  s.jlen <- 0;
  s.recording <- true;
  insert_chain s chain ~off ~len;
  s.recording <- false;
  if feasible s then begin
    s.jlen <- 0;
    true
  end
  else begin
    rollback s;
    false
  end
