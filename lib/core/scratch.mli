(** Grow-only scratch arrays for the deciders, reused across calls.
    A short array is replaced by a fresh one of {!grow} entries, its
    contents {e not} kept: callers refill the prefix they use on every
    call and read it with an explicit bound. *)

val grow : int -> 'a array -> int
(** [grow n arr] is the replacement capacity: at least [n], 16 and
    twice [arr]'s length. *)

val ensure : int -> int array -> int array
(** [ensure n arr] is [arr] if it holds [n] entries, else a fresh
    zeroed array of [grow n arr] entries. *)

val ensure_bool : int -> bool array -> bool array
val ensure_float : int -> float array -> float array
(** {!ensure} for [bool] and [float] arrays. *)
