(** Simulation event traces and the trace contract.

    When tracing is enabled, the simulator records every externally
    meaningful transition. {!check} decides whether a trace is a history
    the simulator could have written (tests run it on every traced
    configuration, and CSV ingest on every file it reads), and the
    exporters in [Rtlf_obs] turn a trace into Chrome trace-event JSON or
    CSV. *)

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
    Without [capacity] the trace grows unboundedly (required by
    {!check}, which needs the full history). With [~capacity:c]
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

(** {1 The state a trace implies}

    One walker steps through a trace entry by entry and keeps what the
    entries so far imply: who occupies each core, who holds each object,
    and each live job's task, arrival, core and wait; of an ended job it
    keeps only that it ended. {!check} checks every entry
    against it before stepping; the readers in [Rtlf_obs] (spans,
    attribution, the Chrome export) step their own walker and read from
    it, so they agree on one reading of the trace. Stepping never fails:
    on an entry the contract rejects, or on a ring-buffered trace, it
    applies the entry's effect as far as it can. *)

type job = private {
  mutable task : int;     (** from its [Arrive]; [-1] before it *)
  mutable arrival : int;  (** true arrival time; [-1] before [Arrive] *)
  mutable core : int;     (** the core it occupies, or [-1] *)
  mutable waits_on : int; (** the object it is blocked on, or [-1] *)
  mutable ended : bool;   (** it completed or aborted *)
  mutable last_core : int;  (** the core of its last [Start], or [-1] *)
  mutable bound_for : int;
      (** the target of a [Migrate] no [Start] consumed yet, or [-1] *)
  mutable migrated_at : int;  (** that [Migrate]'s step number *)
}

type walk
(** A walker's state, which {!step} updates in place. *)

val walk : ?sync:Sync.t -> unit -> walk
(** [walk ?sync ()] is the state before any entry. Under a spin
    discipline a [Block] leaves the waiter on its core (it busy-waits
    there); otherwise, and without [sync], a [Block] vacates it. *)

val step : walk -> entry -> unit
(** [step w e] applies [e]: [Start] puts its job on the core (vacating
    the job's previous core and the core's previous occupant), [Preempt],
    [Complete] and [Abort] vacate, [Block] sets the wait, [Wake],
    [Complete] and [Abort] clear it, [Acquire] and [Release] move the
    object's holder. A job an entry names before its [Arrive], or after
    it ended, gets a fresh record. *)

val find : walk -> int -> job option
(** [find w jid] is [jid]'s record, if an entry stepped so far named it.
    Once the job has ended, the record says only that: [ended], no
    core, no wait. *)

val arrive : walk -> jid:int -> task:int -> at:int -> job
(** [arrive w ~jid ~task ~at] is what stepping [Arrive (jid, task, at)]
    does, for a reader that admits a job at its true arrival, before
    its [Arrive] entry; it returns the job's record. *)

val occupant : walk -> core:int -> int
(** [occupant w ~core] is the job on [core], or [-1]. *)

val holder : walk -> obj:int -> int
(** [holder w ~obj] is the job holding [obj], or [-1]. *)

val occupants : walk -> (int * int) list
(** [occupants w] is every busy [(core, jid)], in core order. *)

(** {1 The trace contract} *)

val check : ?sync:Sync.t -> t -> (unit, string) result
(** [check ?sync tr] is [Ok ()] when [tr] obeys the trace contract
    (DESIGN.md, "Trace contract"), and otherwise [Error "t=T: J… …"]
    describing the first entry that breaks it. The contract covers time
    order, a job's life from [Arrive] to [Complete]/[Abort], core
    occupancy and migrations, wait queues and object ownership; a trace
    that dropped entries fails it. With the run's [sync], [Block] and
    [Wake] are legal only when {!Sync.uses_lock_events} holds, and a
    spin-waiter keeps its core through [Block]; without it (a trace read
    back from a file) both are legal and a [Block] vacates the core. *)

val violation : ?sync:Sync.t -> t -> (int * string) option
(** [violation ?sync tr] is the position in {!entries} and the message
    of the entry {!check} rejects, or [None] when it accepts [tr]. *)

val count : t -> (kind -> bool) -> int
(** [count tr pred] counts entries whose kind satisfies [pred]. *)
