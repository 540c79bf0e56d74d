(** Lock ownership, wait-for relations, dependency chains and deadlock
    detection (§3.1, §3.3).

    This is the bookkeeping substrate of lock-based RUA: it records who
    holds which object, who waits on whom, computes the transitive
    dependency chain of a job by following request-and-ownership edges,
    and detects cycles (a necessary condition for deadlock under nested
    critical sections). Jobs are identified by their [jid] ([>= 0]).

    It is the only record of these facts: the table lives on arrays
    sized once from the registry (each object's holder, grant stamp and
    FIFO of waiters), and per-job facts are read off them. An
    uncontended {!request} + {!release} pair allocates nothing. *)

type t
(** Mutable lock table over a fixed object registry. *)

type grant = Granted | Blocked_on of int
(** Outcome of a lock request: [Blocked_on owner_jid]. *)

val create : objects:Resource.t -> t
(** [create ~objects] is an empty lock table for the registry. *)

val owner : t -> obj:int -> int option
(** [owner tbl ~obj] is the jid currently holding [obj], if any. *)

val holding : t -> jid:int -> int list
(** [holding tbl ~jid] lists the objects held by [jid], most recently
    granted first. *)

val holds_any : t -> jid:int -> bool
(** [holds_any tbl ~jid] is [holding tbl ~jid <> []], without
    allocating. *)

val waiting_for : t -> jid:int -> int option
(** [waiting_for tbl ~jid] is the object [jid] is blocked on, if
    any. *)

val waiters : t -> obj:int -> int list
(** [waiters tbl ~obj] is the FIFO queue of jids blocked on [obj]. *)

val queue_length : t -> obj:int -> int
(** [queue_length tbl ~obj] is [List.length (waiters tbl ~obj)], without
    allocating. *)

val request : t -> jid:int -> obj:int -> grant
(** [request tbl ~jid ~obj] acquires [obj] for [jid] if free (or
    already held by [jid] — the lock is reentrant only in that trivial
    sense), otherwise enqueues [jid] as a waiter and returns the
    blocking owner. A waiting job must not request. Raises
    [Invalid_argument] on a negative [jid]. *)

val release : t -> jid:int -> obj:int -> int option
(** [release tbl ~jid ~obj] releases [obj] and hands it to the head
    waiter, returning the new owner's jid if any. Raises
    [Invalid_argument] if [jid] does not hold [obj]. *)

val cancel_wait : t -> jid:int -> unit
(** [cancel_wait tbl ~jid] removes [jid] from whatever wait queue it
    sits in (used when a blocked job is aborted). No-op if not
    waiting. *)

val release_all : t -> jid:int -> (int * int option) list
(** [release_all tbl ~jid] releases every object held by [jid] (abort
    path), newest grant first, returning [(obj, new_owner)] pairs in
    that release order, and cancels any pending wait of [jid]. *)

val dependency_chain : t -> jid:int -> int list
(** [dependency_chain tbl ~jid] is the job's chain in the paper's
    head-first order: for the Figure 3 scenario where T₁ waits on T₂
    which waits on T₃, the chain of T₁ is [\[T₃; T₂; T₁\]]. A job that
    waits on nobody has the singleton chain [\[jid\]]. If the walk
    closes a cycle (deadlock), the walk stops after the first repeated
    job; use {!find_cycle} to obtain the cycle itself. *)

val find_cycle : t -> jid:int -> int list option
(** [find_cycle tbl ~jid] is [Some cycle] when following
    wait-for/ownership edges from [jid] revisits a job; the returned
    list is the cycle's members (each exactly once). [None]
    otherwise. *)

val blocked_jobs : t -> int list
(** [blocked_jobs tbl] lists every waiting jid, by object, each queue
    in FIFO order. *)

val assert_consistent : t -> unit
(** [assert_consistent tbl] checks internal invariants (waiters wait on
    owned objects; a job waits in at most one queue, once; no job both
    holds and waits for the same object). Raises [Assert_failure] on
    violation — intended for tests. *)
