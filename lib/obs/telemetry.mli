(** Retry & interference telemetry over the lock-free functor seam.

    The paper's central quantitative object — how often lock-free
    operations retry under interference — is invisible to wall-clock
    profiling. This module makes it measurable: a {!site} owns a block
    of per-domain-sharded integer counters, and the
    {!Counting_atomic}/{!Counting_mutex} functors wrap any base
    [ATOMIC]/[MUTEX] implementation so that instantiating a
    structure's [Make] functor with a counting layer records every CAS
    attempt/failure, read, write, lock acquisition and hold conflict —
    without touching the structure itself (all nine [Rtlf_lockfree]
    structures are functorised over exactly this seam).

    Counter increments are allocation-free and atomics-free: one
    load/add/store into a cell indexed by the running domain's id,
    with shards padded a cache line apart, so instrumentation does not
    perturb the contention behaviour it measures. Totals are summed
    across shards at {!snapshot} time; snapshots taken while domains
    are still running are racy (monotone counters, no tearing of a
    single cell — quiesce for exact totals). *)

type counter =
  | Reads            (** [get] *)
  | Writes           (** [set] / [exchange] *)
  | Cas_attempts     (** every [compare_and_set] call *)
  | Cas_failures     (** [compare_and_set] that returned [false] *)
  | Fetch_adds       (** [fetch_and_add] / [incr] / [decr] *)
  | Lock_acquires    (** successful mutex acquisitions *)
  | Lock_conflicts   (** acquisitions that found the mutex held *)
  | Backoff_spins    (** spins reported by {!Rtlf_lockfree.Backoff} *)

type site
(** A named instrumentation point (typically one structure instance,
    or one structure kind). Sites live for the process lifetime. *)

val register : string -> site
(** [register name] allocates a fresh site. Thread-safe. *)

val name : site -> string

val sites : unit -> site list
(** All registered sites, in registration order. *)

val bump : site -> counter -> unit
(** [bump site k] adds one to counter [k] in the calling domain's
    shard. O(1), allocation-free, no atomics. *)

val bump_by : site -> counter -> int -> unit

val count : site -> counter -> int
(** [count site k] sums counter [k] across shards. *)

val reset : site -> unit
(** Zero every counter of [site]. Do not race with live increments. *)

type snapshot = {
  site : string;
  reads : int;
  writes : int;
  cas_attempts : int;
  cas_failures : int;
  fetch_adds : int;
  lock_acquires : int;
  lock_conflicts : int;
  backoff_spins : int;
}
(** All counters of one site, summed across shards. *)

val snapshot : site -> snapshot

val is_quiet : snapshot -> bool
(** [true] when the site recorded nothing. *)

val cas_failure_rate : snapshot -> float
(** Failures per attempt in [\[0, 1\]] ([0.] when no attempt). *)

val install_backoff_observer : unit -> site
(** Route {!Rtlf_lockfree.Backoff} spin reports into a process-global
    ["backoff"] site (returned; stable across calls). Spins cannot be
    attributed per-site — [Backoff] state is private to each structure
    operation — so reset the returned site around a region of interest
    to attribute spins to it. *)

val uninstall_backoff_observer : unit -> unit

module type SITE = sig
  val site : site
end

(** [Counting_atomic (Base) (S)] is [Base] with every operation
    counted against [S.site]. The representation is [Base]'s own
    ([type 'a t = 'a Base.t]), so instrumented and uninstrumented
    structures behave bit-identically — the differential test suite
    pins this. *)
module Counting_atomic
    (Base : Rtlf_lockfree.Atomic_intf.ATOMIC)
    (S : SITE) :
  Rtlf_lockfree.Atomic_intf.ATOMIC with type 'a t = 'a Base.t

(** [Counting_mutex (S)] instruments [Stdlib.Mutex] (a [try_lock]
    probe detects hold conflicts before falling back to a blocking
    [lock]; the MUTEX signature itself has no [try_lock], so this
    functor does not wrap arbitrary bases). *)
module Counting_mutex (S : SITE) :
  Rtlf_lockfree.Atomic_intf.MUTEX with type t = Stdlib.Mutex.t
