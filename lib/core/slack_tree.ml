(* Bottom-up range-add / range-min tree (per-position slack) with a
   per-node sum of admitted rem, over a fixed position range. Storage
   is grow-only and reused across decisions.

   Layout: leaves are nodes [size .. 2*size-1], node [v]'s children are
   [2v] and [2v+1]. [ad.(v)] is an add pending for internal node v's
   whole subtree (a leaf folds its adds into its [mn], so [ad] has no
   leaf slots); [mn.(v)] is the subtree min including every add at or
   below v; [sm.(v)] is the sum of rem over the admitted positions in
   v's subtree. A position's true slack is its leaf's [mn] plus the
   [ad] of its strict ancestors.

   One leaf-to-root walk from leaf [pos] ({!probe}) meets, as siblings
   of the path, exactly the subtrees covering [0, pos) (left siblings)
   and (pos, size) (right siblings), and every strict ancestor's add:
   the prefix sum, the suffix min and the ancestors' add sum in one
   pass. {!admit} is then the one write walk. *)

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
  mutable ad : int array; (* internal node -> add over its whole subtree *)
  mutable sm : int array; (* node -> sum of admitted rem in its subtree *)
  (* The last probe: its position (-1 once an admit has made it stale)
     and its three readings. *)
  mutable probed : int;
  mutable before : int;
  mutable after : int;
  mutable above : int; (* sum of the strict ancestors' adds *)
}

let create () =
  {
    n = 0;
    size = 1;
    mn = [||];
    ad = [||];
    sm = [||];
    probed = -1;
    before = 0;
    after = sentinel;
    above = 0;
  }

let reset t ~n =
  let size = ref 1 in
  while !size < n do
    size := !size * 2
  done;
  let size = !size in
  t.n <- n;
  t.size <- size;
  t.probed <- -1;
  if Array.length t.mn < 2 * size then begin
    t.mn <- Array.make (2 * size) 0;
    t.ad <- Array.make size 0;
    t.sm <- Array.make (2 * size) 0
  end;
  let mn = t.mn and ad = t.ad and sm = t.sm in
  for v = (2 * size) - 1 downto 1 do
    sm.(v) <- 0;
    if v >= size then mn.(v) <- (if v - size < n then sentinel else padding)
    else begin
      ad.(v) <- 0;
      mn.(v) <- Int.min mn.(2 * v) mn.((2 * v) + 1)
    end
  done

(* The padding start value of [after] only ever takes adds (each [rem]
   is subtracted once), so it stays above every in-range leaf and is
   beaten whenever [pos + 1 < n]. *)
let probe t ~pos =
  let mn = t.mn and ad = t.ad and sm = t.sm in
  let before = ref 0 and after = ref padding and above = ref 0 in
  let x = ref (t.size + pos) in
  while !x > 1 do
    let v = !x in
    if v land 1 = 0 then after := Int.min !after mn.(v + 1)
    else before := !before + sm.(v - 1);
    let p = v lsr 1 in
    after := !after + ad.(p);
    above := !above + ad.(p);
    x := p
  done;
  t.probed <- pos;
  t.before <- !before;
  t.after <- (if pos + 1 >= t.n then sentinel else !after);
  t.above <- !above

let before t = t.before

let after t = t.after

let prefix_rem t ~pos =
  probe t ~pos;
  t.before + t.sm.(t.size + pos)

let suffix_min t ~pos =
  if pos >= t.n then sentinel
  else begin
    probe t ~pos;
    Int.min (t.mn.(t.size + pos) + t.above) t.after
  end

let min_all t = if t.n = 0 then sentinel else t.mn.(1)

(* Leaf write plus suffix add over (pos, size) in one upward pass: the
   right siblings along [pos]'s path are exactly that suffix. The
   probe's ancestor sum makes the leaf's true slack [slack]. *)
let admit t ~pos ~rem ~slack =
  if t.probed <> pos then probe t ~pos;
  t.probed <- -1;
  let mn = t.mn and ad = t.ad and sm = t.sm in
  let leaf = t.size + pos in
  mn.(leaf) <- slack - t.above;
  sm.(leaf) <- rem;
  if leaf land 1 = 0 then mn.(leaf + 1) <- mn.(leaf + 1) - rem;
  let x = ref (leaf lsr 1) in
  while !x >= 1 do
    let v = !x in
    mn.(v) <- ad.(v) + Int.min mn.(2 * v) mn.((2 * v) + 1);
    sm.(v) <- sm.(v) + rem;
    if v land 1 = 0 then begin
      ad.(v + 1) <- ad.(v + 1) - rem;
      mn.(v + 1) <- mn.(v + 1) - rem
    end;
    x := v lsr 1
  done
