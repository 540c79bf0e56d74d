(** Feasibility index for the greedy admission loop.

    The RUA greedy admits candidates in PUD order into a schedule kept
    in ECF order. Admitting candidate [c] at fixed schedule position
    [p] is feasible iff

    - [now + (rem admitted before p) + rem c <= eff_ct c], and
    - every already-admitted entry at a position after [p] keeps a
      non-negative slack once [rem c] is added to its prefix.

    One tree answers both. A bottom-up range-add / range-min tree holds
    per-position slack values [v_i = eff_ct_i - prefix_rem_i] (admitted
    positions only; vacant positions sit at a huge sentinel that never
    wins a min), and each node also keeps the sum of admitted [rem] in
    its subtree. Each node keeps its subtree's min and one add for its
    whole subtree, so there is no push-down: {!probe} is one
    leaf-to-root walk that reads the prefix sum before [p], the slack
    min after [p] and the adds above [p], {!admit} is one write walk,
    and {!min_all} reads the root. Positions are fixed up front — the
    candidate set sorted by (eff_ct, admission rank) — so admission is
    a leaf write plus one suffix add, never a physical shift.

    One instance is reusable across decisions ({!reset} is O(n) and
    storage grows monotonically). *)

type t

val sentinel : int
(** The vacant-position slack: far above any reachable slack, far below
    overflow. {!after}, {!suffix_min} and {!min_all} return it when no
    position is in range. *)

val create : unit -> t
(** [create ()] is an empty index. *)

val reset : t -> n:int -> unit
(** [reset t ~n] prepares the index for [n] fixed positions, all
    vacant. O(n) amortised; retains storage. *)

val probe : t -> pos:int -> unit
(** [probe t ~pos] walks once from position [pos] ([0 <= pos < n]) to
    the root and keeps its readings, {!before} and {!after}, until the
    next [probe]. O(log n). *)

val before : t -> int
(** [before t] is the sum of [rem] over the admitted positions before
    the last probed one. *)

val after : t -> int
(** [after t] is the minimum slack over the positions after the last
    probed one: admitted positions carry their slack, vacant ones the
    sentinel minus the [rem] admitted before them, so it is huge when
    none after it is admitted, and exactly {!sentinel} when the probed
    position is the last. *)

val prefix_rem : t -> pos:int -> int
(** [prefix_rem t ~pos] is the sum of [rem] over admitted positions
    [<= pos]: one {!probe} plus the leaf at [pos]. *)

val suffix_min : t -> pos:int -> int
(** [suffix_min t ~pos] is the minimum slack over positions [>= pos],
    as {!after} counts them (the sentinel when [pos >= n]): one
    {!probe} plus the leaf at [pos]. *)

val min_all : t -> int
(** [min_all t] is the minimum slack over all admitted positions (the
    sentinel when none) — an admitted schedule is feasible at time
    [now] iff [now <= min_all t]. *)

val admit : t -> pos:int -> rem:int -> slack:int -> unit
(** [admit t ~pos ~rem ~slack] marks the vacant position [pos]
    admitted: its slack leaf is set to [slack], [rem] is added to the
    prefix sums after [pos], and every later position's slack drops by
    [rem]. One write walk when [pos] was the last position probed,
    with no admit since; otherwise it probes [pos] first. *)
