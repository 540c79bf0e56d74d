(** Object-sharing disciplines (§1.1, §5).

    The simulator charges shared-object accesses according to one of
    three disciplines:

    - {b Lock-based}: each access is lock-request / critical-section /
      unlock. The request and the release each cost [overhead] ns of
      CPU and each is a {e scheduling event} (RUA is re-invoked — the
      paper's main source of lock-based cost). A request on a held
      object blocks the job.
    - {b Lock-free}: each access is an optimistic attempt of
      [overhead + work] ns. If the object was modified by another job
      between the start and the end of the attempt, the attempt retries
      (compare-and-swap discipline). Lock and unlock scheduling events
      do not exist.
    - {b Spin}: each access is spin-acquire / critical-section /
      spin-release of a queued spin lock (ticket or MCS). Acquire and
      release each cost [overhead] ns of CPU but — unlike lock-based —
      neither is a scheduling event: the holder runs the critical
      section non-preemptively and a contended requester {e busy-waits
      on its own core}, burning CPU until the FIFO grant. On a single
      core contention is impossible (the holder cannot be preempted),
      so spin degenerates to uncontended locking; cross-core
      contention appears only with [cores > 1].
    - {b Ideal}: accesses are free — the paper's reference point for
      isolating scheduler overhead (§6.1). *)

type spin_kind = Ticket | Mcs  (** queued spin-lock discipline *)

type t =
  | Lock_based of { overhead : int }
      (** [overhead]: lock-management CPU cost (ns) charged at request
          and again at release. *)
  | Lock_free of { overhead : int }
      (** [overhead]: per-attempt CAS/validation CPU cost (ns) added to
          the access work. *)
  | Spin of { overhead : int; kind : spin_kind }
      (** [overhead]: spin-lock acquire/release CPU cost (ns), charged
          at each end of the critical section. [kind] selects the
          ticket or MCS discipline (both grant FIFO; they differ in
          the cache traffic modelled by the lockfree-layer kernels,
          not in simulator-visible ordering). *)
  | Ideal  (** zero-cost accesses *)

val spin_kind_name : spin_kind -> string
(** [spin_kind_name k] is ["ticket" | "mcs"]. *)

val name : t -> string
(** [name sync] is
    ["lock-based" | "lock-free" | "spin-ticket" | "spin-mcs" | "ideal"]. *)

val nominal_access_cost : t -> work:int -> int
(** [nominal_access_cost sync ~work] is the conflict- and blocking-free
    CPU cost of one access: [2·overhead + work] (lock-based and spin),
    [overhead + work] (lock-free), [0] (ideal). This is the paper's
    per-access [t_acc] used in remaining-cost estimates. *)

val uses_lock_events : t -> bool
(** [uses_lock_events sync] is [true] iff lock/unlock (or spin
    block/grant) events may appear in traces under [sync] (lock-based
    and spin; §4.1). *)
