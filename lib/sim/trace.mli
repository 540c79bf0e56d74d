(** Simulation event traces and invariant checkers.

    When tracing is enabled, the simulator records every externally
    meaningful transition. Tests use the checkers to validate
    system-wide invariants end-to-end (mutual exclusion, abort-implies-
    release, Lemma 1's preemption/event inequality), and the exporters
    in [Rtlf_obs] turn a trace into Chrome trace-event JSON or CSV. *)

type kind =
  | Arrive of int * int * int
      (** jid arrived (payload: jid, task id, true arrival time ns). The
          entry's [time] is when the simulator processed the arrival,
          which can lag the true arrival when a scheduler-cost or
          abort-handler interval straddles it; causal attribution needs
          the exact release time, so it rides in the payload. *)
  | Start of int * int
      (** jid dispatched (payload: jid, core id). Single-CPU runs
          always dispatch onto core [0]. *)
  | Migrate of int * int * int
      (** jid moved between cores (payload: jid, departing core,
          arriving core). Emitted by the global dispatcher just before
          the matching [Start] on the arriving core; never emitted at
          [cores = 1] or under partitioned dispatch. *)
  | Preempt of int * int
      (** jid lost the CPU (payload: victim jid, preemptor jid).
          The preemptor is [-1] when the victim was descheduled with no
          successor (e.g. the decider left the CPU idle). *)
  | Block of int * int       (** jid blocked on object *)
  | Wake of int * int        (** jid granted object after waiting *)
  | Acquire of int * int     (** jid locked object *)
  | Release of int * int     (** jid unlocked object *)
  | Retry of int * int * int * int
      (** jid retried its access to object (payload: jid, object,
          invalidator jid, lost ns). The invalidator is the job whose
          interleaved write invalidated the attempt ([-1] when
          unknown); [lost] is the discarded attempt's CPU time — the
          segment progress thrown away by the restart. *)
  | Access_done of int * int (** jid completed an access to object *)
  | Complete of int          (** jid finished *)
  | Abort of int * int
      (** jid aborted at its critical time (payload: jid, abort-handler
          ns actually charged to the CPU after this entry's time). *)
  | Sched of int * int       (** scheduler invoked (payload: ops, cost ns) *)

type entry = { time : int; kind : kind }

type t
(** A mutable trace recorder. *)

val create : ?capacity:int -> enabled:bool -> unit -> t
(** [create ~enabled] records nothing when [enabled] is [false].
    Without [capacity] the trace grows unboundedly (required by the
    invariant checkers, which need full history). With [~capacity:c]
    the trace is a drop-oldest ring buffer of at most [c] entries —
    bounded memory for long-horizon simulations — and {!dropped}
    counts the overwritten entries. Raises [Invalid_argument] when
    [capacity <= 0]. *)

val chunk_size : int
(** Entries are stored in chunks of this many slots, allocated as the
    trace first reaches them: an unbounded trace grows one chunk at a
    time and never copies what it holds. *)

val enabled : t -> bool
(** [enabled tr] is whether [tr] records anything. Callers on a hot
    path test it before building a {!kind} payload, so an untraced run
    allocates none. *)

val record : t -> time:int -> kind -> unit
(** [record tr ~time kind] appends one entry (O(1)). *)

val entries : t -> entry list
(** [entries tr] is the recorded history in chronological order (the
    retained suffix, in ring-buffer mode). *)

val length : t -> int
(** [length tr] is the number of entries {!entries} would list. *)

val iter : (entry -> unit) -> t -> unit
(** [iter f tr] applies [f] to the recorded history in chronological
    order, as {!entries} lists it, without copying it. *)

val dropped : t -> int
(** [dropped tr] is the number of entries overwritten in ring-buffer
    mode (always [0] for unbounded traces). *)

val capacity : t -> int option
(** [capacity tr] is the ring-buffer capacity, or [None] when
    unbounded. *)

val check_mutual_exclusion : t -> (unit, string) result
(** [check_mutual_exclusion tr] verifies that between a job's [Acquire]
    of an object and the matching [Release], no other job acquires the
    same object. *)

val check_abort_releases : t -> (unit, string) result
(** [check_abort_releases tr] verifies no job holds a lock after its
    [Abort] or [Complete] entry (every [Acquire] is matched by a
    [Release] before the job ends). *)

val check_block_only_lock_based : lock_based:bool -> t -> (unit, string) result
(** [check_block_only_lock_based ~lock_based tr] verifies that [Block]
    and [Wake] events occur only under lock-based synchronization:
    when [lock_based] is [false] (lock-free or ideal sharing), any
    such event is an invariant violation. *)

val check_wake_follows_block : t -> (unit, string) result
(** [check_wake_follows_block tr] verifies wait-queue discipline:
    every [Wake (jid, obj)] matches an open [Block (jid, obj)], no job
    blocks twice without an intervening wake, and a job's terminal
    event clears its pending wait (an aborted waiter needs no
    [Wake]). *)

val preemptions : t -> int
(** [preemptions tr] counts [Preempt] entries. *)

val scheduler_invocations : t -> int
(** [scheduler_invocations tr] counts [Sched] entries. *)

val count : t -> (kind -> bool) -> int
(** [count tr pred] counts entries whose kind satisfies [pred]. *)
