(** Growable float buffer (amortised-doubling array).

    An unbounded sample log: appending is amortised O(1) with no
    per-sample boxing beyond the flat float array, and the samples hand
    off to {!Stats.histogram} / {!Stats.percentile} as one contiguous
    array. The simulator keeps its per-completion log in one; integer
    samples with few distinct values fit {!Stats.Counts} better. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] is an empty buffer; [capacity] preallocates. *)

val length : t -> int

val push : t -> float -> unit

val push_int : t -> int -> unit
(** [push_int buf n] is [push buf (float_of_int n)] — the simulator's
    spans and costs are integer nanoseconds. *)

val get : t -> int -> float
(** [get buf i] is the [i]-th pushed value. Raises [Invalid_argument]
    out of bounds. *)

val to_array : t -> float array
(** [to_array buf] is a trimmed copy of the contents, in push order. *)
