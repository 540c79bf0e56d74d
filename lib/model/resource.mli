(** Shared-object registry.

    Objects are identified by dense indices [0 .. n−1]. Each object
    carries a version counter used by the simulator's lock-free
    conflict detection: every successfully completed lock-free access
    bumps the version, and an in-flight attempt that observes a version
    change must retry (the optimistic-CAS discipline of [21, 25]). *)

type t
(** A registry of [n] shared objects. *)

val create : n:int -> t
(** [create ~n] registers objects [0 .. n−1]. Raises
    [Invalid_argument] if [n < 0]. *)

val count : t -> int
(** [count r] is the number of objects. *)

val check : t -> int -> unit
(** [check r obj] raises [Invalid_argument] if [obj] is out of
    range. *)

val version : t -> int -> int
(** [version r obj] is the current modification count of [obj]. *)

val bump : t -> int -> unit
(** [bump r obj] records one completed modification of [obj]. *)
