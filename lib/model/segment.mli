(** Execution profiles: a job's work as compute and shared-object
    access segments.

    The paper models a job's computation time as [c = u + m·t_acc]
    (§5): [u] nanoseconds of private compute plus [m] accesses to
    shared objects. We realise that structure explicitly so the
    simulator can charge blocking (lock-based) or retries (lock-free)
    exactly at access boundaries. *)

type t =
  | Compute of int
      (** Private computation of the given span (ns); progress survives
          preemption. *)
  | Access of { obj : int; work : int; write : bool }
      (** One operation on shared object [obj] whose data work costs
          [work] ns. Under lock-based sync the segment expands to
          lock-request / critical-section / unlock (readers lock too —
          single-unit mutual exclusion); under lock-free it is an
          optimistic attempt that retries when a {e writer} modified
          the object mid-attempt. Reads ([write = false]) never
          invalidate other attempts — the multi-reader side of the
          paper's multi-writer/multi-reader problem (§7). *)
  | Lock of int
      (** Acquire object and {e keep holding it} across subsequent
          segments — the building block of nested critical sections
          (§3.3). Only meaningful under lock-based sharing; lock-free
          and ideal simulations skip it at zero cost (the paper's
          lock-free model excludes nesting). *)
  | Unlock of int
      (** Release a previously [Lock]ed object. *)

val span : t -> int
(** [span s] is the nominal duration of [s], excluding synchronisation
    overheads. *)

val total_span : t list -> int
(** [total_span segs] sums nominal durations. *)

val count_accesses : t list -> int
(** [count_accesses segs] is the paper's [m] for the remaining
    profile. *)

val access : obj:int -> work:int -> ?write:bool -> unit -> t
(** [access ~obj ~work ()] is an access segment; [write] defaults to
    [true]. *)

val interleave_rw :
  compute:int -> accesses:(int * int * bool) list -> t list
(** [interleave_rw ~compute ~accesses] is {!interleave} with a per-
    access [(obj, work, write)] flag. *)

val interleave :
  compute:int -> accesses:(int * int) list -> ?write:bool -> unit -> t list
(** [interleave ~compute ~accesses ()] spreads the [(obj, work)] accesses
    evenly through [compute] ns of private work: with [m] accesses the
    result is [m + 1] compute slices separated by the accesses, each
    slice of [compute / (m+1)] ns (the remainder goes to the first
    slice). Zero-span compute slices are dropped. All accesses share
    the [write] flag (default [true]). Raises [Invalid_argument] on
    negative spans. *)

val well_nested : t list -> (unit, string) result
(** [well_nested profile] checks lock discipline: every [Unlock]
    matches an object currently held via [Lock], no object is [Lock]ed
    twice without an intervening [Unlock], no flat [Access] touches an
    object currently held (that would self-deadlock), and nothing is
    left held at the end. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt s] prints one segment. *)
