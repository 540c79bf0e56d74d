(** Job (task invocation) runtime state.

    A job is the basic scheduling entity (§2). The simulator owns the
    state machine; this module defines the record, its legal
    transitions, and derived quantities (remaining work, absolute
    critical time, accrued utility). *)

type state =
  | Ready        (** eligible to run, not currently dispatched *)
  | Running      (** currently holds the CPU *)
  | Blocked of int
      (** waiting for the given shared object (lock-based only) *)
  | Completed    (** finished all segments *)
  | Aborted      (** critical time expired (or deadlock resolution) *)

type t = {
  task : Task.t;          (** static parameters *)
  jid : int;              (** globally unique job id *)
  arrival : int;          (** absolute arrival time, ns *)
  mutable state : state;
  profile : Segment.t array;
      (** the task's execution profile, one array shared by all its
          jobs; never mutated *)
  mutable seg : int;
      (** cursor: index in [profile] of the current segment;
          [Array.length profile] once every segment is done *)
  mutable seg_progress : int;
      (** ns of the current segment already executed *)
  mutable holding : int list;
      (** unused by the library: the lock table
          ({!Lock_manager.holding}) is the one record of held objects,
          and [lib/] neither reads nor writes this field. Only the
          benchmark replay ([bench/e2e/layers.ml]) still keeps it. *)
  mutable lock_pending : bool;
      (** current access segment has issued its lock request *)
  mutable attempt_snapshot : int;
      (** object version at the start of the current lock-free attempt
          ([-1]: no attempt open) *)
  mutable access_enter : int;
      (** time the current access segment was first entered, for r/s
          ([-1]: not entered yet) *)
  mutable retries : int;  (** lock-free retries suffered so far *)
  mutable preemptions : int;
  mutable block_start : int;
      (** time the open blocking span began ([-1]: not blocked); the
          object is the one [Blocked] names *)
  mutable completion : int;
      (** absolute completion time ([-1] until completed) *)
  mutable accrued : float;          (** utility credited on completion *)
  mutable last_core : int;
      (** core the job last ran on ([-1] before its first dispatch) —
          the dispatcher's migration-cost and core-affinity input *)
}

val create : task:Task.t -> jid:int -> arrival:int -> t
(** [create ~task ~jid ~arrival] is a fresh [Ready] job with the full
    segment profile, built from [Task.segments task]. *)

val of_profile :
  task:Task.t -> profile:Segment.t array -> jid:int -> arrival:int -> t
(** [of_profile ~task ~profile ~jid ~arrival] is [create] with the
    profile array already built: a simulator builds each task's array
    once per run and shares it between the task's jobs. *)

val dummy : t
(** [dummy] is an inert placeholder for the vacant slots of a
    preallocated job array ([jid = -1]). It is never handed to a
    scheduler: such arrays are always read up to an explicit length. *)

val absolute_critical_time : t -> int
(** [absolute_critical_time j] is [arrival + Cᵢ]. *)

val remaining_nominal : t -> int
(** [remaining_nominal j] is the ns of work left excluding sync
    overheads: the rest of the current segment's span plus the spans
    after it. *)

val remaining_accesses : t -> int
(** [remaining_accesses j] counts access segments not yet completed. *)

val current_segment : t -> Segment.t option
(** [current_segment j] is the segment under the cursor, [None] once
    the profile is done. *)

val profile_done : t -> bool
(** [profile_done j] is [true] once the cursor has passed every
    segment. *)

val is_live : t -> bool
(** [is_live j] is [true] for [Ready], [Running] or [Blocked _]. *)

val is_runnable : t -> bool
(** [is_runnable j] is [true] for [Ready] or [Running] (not blocked,
    not finished). *)

val utility_at : t -> now:int -> float
(** [utility_at j ~now] is the utility the job would accrue by
    completing at absolute time [now]. *)

val utility_into : t -> now:int -> float array -> int -> unit
(** [utility_into j ~now dst i] stores [utility_at j ~now] in
    [dst.(i)], allocating nothing ({!Tuf.utility_into}). *)

val sojourn : t -> int option
(** [sojourn j] is [completion − arrival] once completed. *)

val finish_segment : t -> unit
(** [finish_segment j] advances the cursor and resets per-segment
    bookkeeping ([seg_progress], [lock_pending], [attempt_snapshot],
    [access_enter]). Raises [Invalid_argument] if no segment
    remains. *)

val restart_access : t -> unit
(** [restart_access j] zeroes progress on the current (access) segment
    and counts one retry — the lock-free conflict path. *)
