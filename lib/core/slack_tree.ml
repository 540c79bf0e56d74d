(* Fenwick tree (prefix sums of admitted rem) + bottom-up range-add /
   range-min tree (per-position slack) over a fixed position range.
   Storage is grow-only and reused across decisions.

   Slack tree layout: leaves are nodes [size .. 2*size-1], node [v]'s
   children are [2v] and [2v+1]. [ad.(v)] is an add pending for v's
   whole subtree; [mn.(v)] is the subtree min including every add at or
   below v (leaves fold their adds into [mn]). A position's true slack
   is its leaf's [mn] plus the [ad] of its strict ancestors, so
   [suffix_min] is one leaf-to-root walk and [admit] two (read the
   ancestors' adds, then write), with no push-down. *)

(* Far above any reachable slack (eff_ct minus work sums, both bounded
   by the virtual-time horizon), far below overflow even after every
   admitted rem is subtracted from it. *)
let sentinel = max_int / 4

(* Padding leaves at positions [>= n]: they take suffix adds too, but
   stay above every in-range vacant leaf, so a min over [pos, size)
   equals the min over [pos, n). *)
let padding = max_int / 2

type t = {
  mutable n : int;
  mutable size : int; (* power of two >= n *)
  mutable mn : int array; (* node -> min slack of its subtree *)
  mutable ad : int array; (* node -> add over its whole subtree *)
  mutable fen : int array; (* 1-based Fenwick over rem *)
}

let create () = { n = 0; size = 1; mn = [||]; ad = [||]; fen = [||] }

let reset t ~n =
  let size = ref 1 in
  while !size < n do
    size := !size * 2
  done;
  let size = !size in
  t.n <- n;
  t.size <- size;
  if Array.length t.mn < 2 * size then begin
    t.mn <- Array.make (2 * size) sentinel;
    t.ad <- Array.make (2 * size) 0;
    t.fen <- Array.make (size + 1) 0
  end
  else begin
    Array.fill t.ad 0 (2 * size) 0;
    Array.fill t.fen 0 (size + 1) 0
  end;
  let mn = t.mn in
  Array.fill mn size n sentinel;
  Array.fill mn (size + n) (size - n) padding;
  for v = size - 1 downto 1 do
    mn.(v) <- Int.min mn.(2 * v) mn.((2 * v) + 1)
  done

(* --- Fenwick ---------------------------------------------------------- *)

let fen_add t i v =
  let i = ref (i + 1) in
  while !i <= t.size do
    t.fen.(!i) <- t.fen.(!i) + v;
    i := !i + (!i land - !i)
  done

(* Sum over positions <= pos. *)
let prefix_rem t ~pos =
  let acc = ref 0 in
  let i = ref (pos + 1) in
  while !i > 0 do
    acc := !acc + t.fen.(!i);
    i := !i - (!i land - !i)
  done;
  !acc

(* --- public queries --------------------------------------------------- *)

(* The leaf at [pos] and the right siblings of its left-child ancestors
   cover [pos, size); each parent's add applies to everything gathered
   below it. *)
let suffix_min t ~pos =
  if pos >= t.n then sentinel
  else begin
    let mn = t.mn and ad = t.ad in
    let x = ref (t.size + pos) in
    let acc = ref mn.(!x) in
    while !x > 1 do
      let v = !x in
      if v land 1 = 0 then acc := Int.min !acc mn.(v + 1);
      x := v lsr 1;
      acc := !acc + ad.(!x)
    done;
    !acc
  end

let min_all t = if t.n = 0 then sentinel else t.mn.(1)

(* Leaf write plus suffix add over (pos, size) in one upward pass: the
   right siblings along [pos]'s path are exactly that suffix. The
   ancestors' adds are read first so the leaf's true slack is [slack]. *)
let admit t ~pos ~rem ~slack =
  fen_add t pos rem;
  let mn = t.mn and ad = t.ad in
  let leaf = t.size + pos in
  let above = ref 0 in
  let x = ref (leaf lsr 1) in
  while !x >= 1 do
    above := !above + ad.(!x);
    x := !x lsr 1
  done;
  mn.(leaf) <- slack - !above;
  let x = ref leaf in
  while !x > 1 do
    let v = !x in
    if v land 1 = 0 then begin
      ad.(v + 1) <- ad.(v + 1) - rem;
      mn.(v + 1) <- mn.(v + 1) - rem
    end;
    let p = v lsr 1 in
    mn.(p) <- ad.(p) + Int.min mn.(2 * p) mn.((2 * p) + 1);
    x := p
  done
