(** Feasibility index for the greedy admission loop.

    The RUA greedy admits candidates in PUD order into a schedule kept
    in ECF order. Admitting candidate [c] at fixed schedule position
    [p] is feasible iff

    - [now + prefix_rem (< p) + rem c <= eff_ct c], and
    - every already-admitted entry at a position after [p] keeps a
      non-negative slack once [rem c] is added to its prefix.

    This module answers both queries in O(log n): a Fenwick tree holds
    the admitted entries' remaining costs by position (prefix sums),
    and a bottom-up range-add / range-min tree holds per-position
    slack values [v_i = eff_ct_i - prefix_rem_i] (admitted positions
    only; vacant positions sit at a huge sentinel that never wins a
    min). Each tree node keeps its subtree's min and one add for its
    whole subtree, so {!suffix_min} and {!admit} are leaf-to-root walks
    with no push-down, and {!min_all} reads the root. Positions are
    fixed up front — the candidate set sorted by (eff_ct, admission
    rank) — so admission is a leaf write plus one suffix add, never a
    physical shift.

    One instance is reusable across decisions ({!reset} is O(n) and
    storage grows monotonically). *)

type t

val sentinel : int
(** The vacant-position slack: far above any reachable slack, far below
    overflow. [suffix_min]/[min_all] return it when no admitted
    position is in range. *)

val create : unit -> t
(** [create ()] is an empty index. *)

val reset : t -> n:int -> unit
(** [reset t ~n] prepares the index for [n] fixed positions, all
    vacant. O(n) amortised; retains storage. *)

val prefix_rem : t -> pos:int -> int
(** [prefix_rem t ~pos] is the sum of [rem] over admitted positions
    [<= pos]. *)

val suffix_min : t -> pos:int -> int
(** [suffix_min t ~pos] is the minimum slack over positions [>= pos]
    (a huge sentinel when no admitted position is in range). *)

val min_all : t -> int
(** [min_all t] is the minimum slack over all admitted positions (the
    sentinel when none) — an admitted schedule is feasible at time
    [now] iff [now <= min_all t]. *)

val admit : t -> pos:int -> rem:int -> slack:int -> unit
(** [admit t ~pos ~rem ~slack] marks the vacant position [pos]
    admitted: its slack leaf is set to [slack], [rem] is added to the
    prefix sums at [pos], and every later position's slack drops by
    [rem]. *)
