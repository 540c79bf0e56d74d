(** Deterministic cooperative scheduler and schedule explorer.

    Runs a set of threads on one domain; every instrumented shared
    access ({!Shim.Atomic}, {!Shim.Mutex}) is a yield point, so the
    scheduler alone decides the interleaving and any execution can be
    replayed exactly from its recorded choice sequence. Exploration is
    stateless model checking: exhaustive lexicographic DFS with a
    CHESS-style preemption bound, or seeded-random schedule sampling. *)

type event =
  | Step of { thread : int; mutable op : string; preempt : bool }
      (** One scheduler step: [thread] performed the shared access
          described by [op]; [preempt] marks a context switch away from
          a still-runnable thread. *)
  | Note of { thread : int; text : string }
      (** Harness marker (operation begin/end) for trace rendering. *)

type outcome = {
  events : event list;      (** forward order *)
  choices : int list;       (** index into the ordered enabled set, per step *)
  arities : int list;       (** size of that enabled set, per step *)
  schedule : int list;      (** thread resumed at each step *)
  preemptions : int;        (** context switches away from runnable threads *)
  steps : int;
  aborted : bool;
      (** branch pruned as unfair (an enabled thread was starved past
          the fairness bound — e.g. a retry loop spinning while its
          peer is parked); never treated as a verdict *)
  failure : string option;  (** deadlock / livelock / uncaught exception *)
}

(** {1 Hooks used by the instrumented shim and harnesses} *)

val yield : string -> unit
(** [yield desc] hands control to the scheduler before a shared access
    described by [desc]. No-op outside a controlled execution or under
    {!quietly}. *)

val block : (unit -> bool) -> string -> unit
(** [block pred desc] parks the calling thread until [pred ()] holds;
    the scheduler re-evaluates [pred] at every choice point. When the
    thread is resumed, no other thread has run since [pred] was
    checked. *)

val annotate : string -> unit
(** [annotate text] appends [text] to the current step's description
    (e.g. CAS success/failure). *)

val note : string -> unit
(** [note text] records a harness marker attributed to the current
    thread. *)

val current : unit -> int
(** Thread id of the currently running thread; [-1] outside a run. *)

val quietly : (unit -> 'a) -> 'a
(** [quietly f] runs [f] with instrumentation suppressed, so harness
    monitoring (retry-counter sampling, post-run audits) does not
    perturb the schedule space. *)

val fresh_atom : unit -> int
(** Next atom id (for trace labels); reset at the start of every
    controlled execution, so ids are stable across re-executions. *)

(** {1 Exploration} *)

type mode =
  | Exhaustive of { max_preemptions : int; max_execs : int }
      (** Enumerate every schedule with at most [max_preemptions]
          context switches away from runnable threads, re-executing
          from scratch per schedule; stop after [max_execs]
          executions. *)
  | Random of { rounds : int; seed : int }
      (** Sample [rounds] schedules uniformly from a SplitMix64 stream
          seeded with [seed]. *)

type 'a case = unit -> (unit -> unit) array * (outcome -> 'a option)
(** A case builds a fresh structure instance and returns its threads
    plus a verdict function; the verdict inspects the finished outcome
    (runtime failures included) and returns [Some failure] to flag the
    execution. *)

type 'a found = { outcome : outcome; verdict : 'a }

val explore : mode:mode -> max_steps:int -> 'a case -> int * 'a found option
(** [explore ~mode ~max_steps case] re-executes [case] under schedules
    drawn per [mode]; every execution is budgeted [max_steps] scheduler
    steps (exceeding it is reported as suspected livelock). Returns
    (executions run, first failing execution if any). *)

val replay :
  ?max_preemptions:int ->
  max_steps:int ->
  'a case ->
  choices:int list ->
  outcome * 'a option
(** [replay case ~choices] re-executes [case] forcing the recorded
    choice sequence — deterministic reproduction of a failure. *)
