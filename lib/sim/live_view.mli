(** Cached, jid-sorted view of the simulator's live jobs.

    Replaces the live-job [Hashtbl] whose every scheduler invocation
    paid a fold plus a [List.sort]. Membership mutations keep a flat
    jid-sorted array; {!view} hands the scheduler a trimmed snapshot
    that is rebuilt only when a dirty flag records a membership change
    since the previous invocation. Lookup and cardinality queries
    ({!find}, {!count}) never touch the dirty flag, so callers
    that only probe membership never force a rebuild. The simulator
    keeps one for its whole live set and, under partitioned dispatch,
    one per core as that core's run queue. *)

type t

val create : ?capacity:int -> unit -> t

val count : t -> int
(** Number of live jobs. O(1); does not rebuild the snapshot. *)

val add : t -> Rtlf_model.Job.t -> unit
(** O(1) for monotonically increasing jids (the simulator's case);
    O(n) insertion otherwise. Raises [Invalid_argument] on a duplicate
    jid. *)

val find : t -> jid:int -> Rtlf_model.Job.t option
(** Binary search; O(log n). *)

val remove : t -> jid:int -> unit
(** No-op when [jid] is absent. The vacated tail slot is reset to a
    dummy job so the view never retains resolved jobs. *)

val view : t -> Rtlf_model.Job.t array
(** Jid-sorted snapshot of the live set. Rebuilt (one [Array.sub])
    only when membership changed since the last call; otherwise the
    previous snapshot is returned as-is. Callers must not mutate the
    array (job fields are fair game — the array holds shared
    references). *)
