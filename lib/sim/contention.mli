(** Per-object contention counters.

    The simulator accumulates one record per shared object while it
    runs (independent of tracing, so the profile is available even for
    long runs with tracing disabled or ring-buffered):

    - [acquires]: successful acquisitions (lock-based) or successfully
      validated accesses (lock-free / ideal);
    - [conflicts]: contended operations — blocked lock requests plus
      failed lock-free validations;
    - [retries]: lock-free retries only (a subset of [conflicts]);
    - [blocked_ns]: total time jobs spent blocked on the object;
    - [max_queue_depth]: deepest wait queue observed. *)

type t = {
  obj : int;
  mutable acquires : int;
  mutable conflicts : int;
  mutable retries : int;
  mutable blocked_ns : int;
  mutable max_queue_depth : int;
}

type totals = {
  t_acquires : int;
  t_conflicts : int;
  t_retries : int;
  t_blocked_ns : int;
}
(** Sums across all objects of one run. *)

val make_array : n:int -> t array
(** [make_array ~n] is a zeroed profile for objects [0 .. n-1]. *)

val note_acquire : t -> unit
(** Count one successful acquisition / validated access. *)

val note_conflict : t -> unit
(** Count one blocked lock request. *)

val note_retry : t -> unit
(** Count one lock-free retry (also counts as a conflict). *)

val note_blocked : t -> ns:int -> unit
(** Add one completed blocking span. Raises [Invalid_argument] on a
    negative span. *)

val note_queue_depth : t -> depth:int -> unit
(** Fold one observed wait-queue depth into the maximum. *)

val totals : t array -> totals
(** [totals arr] sums the counters across objects. *)

val is_quiet : t -> bool
(** [is_quiet c] is [true] when the object saw no activity at all. *)
