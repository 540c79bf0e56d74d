(** Per-core execution state for the multiprocessor simulator.

    The m-core engine keeps one running slot and one busy counter per
    core, plus — under partitioned dispatch — one {!Run_queue} per
    core holding that core's share of the live set (tasks are assigned
    to cores by [task id mod m]). Global dispatch uses no per-core
    queues: a single scheduler instance reads the engine's global live
    view and the dispatcher spreads its schedule across cores. *)

type policy =
  | Global
      (** one scheduler over the whole live set; core 0 follows the
          decision's dispatch slot exactly (the single-CPU semantics),
          remaining cores take the next runnable jobs in schedule
          order; jobs may migrate *)
  | Partitioned
      (** tasks are statically assigned to cores by [task id mod m];
          each core runs an independent scheduler instance over its own
          run queue; jobs never migrate *)

val policy_name : policy -> string
(** ["global" | "partitioned"]. *)

module Run_queue : module type of Live_view
(** A per-core run queue: the cached jid-sorted live view, one
    instance per core under partitioned dispatch. *)

type t

val create : m:int -> policy:policy -> t
(** [create ~m ~policy] is [m] idle cores. Raises [Invalid_argument]
    when [m < 1]. *)

val count : t -> int
(** Number of cores. *)

val admit : t -> Rtlf_model.Job.t -> unit
(** Track a newly released job in its home core's run queue (core
    [task id mod m]; no-op under global dispatch). *)

val retire : t -> Rtlf_model.Job.t -> unit
(** Remove a resolved job from its home run queue (no-op under global
    dispatch). *)

val occupant : t -> int -> Rtlf_model.Job.t
(** [occupant t c] is the job currently running (or spinning) on core
    [c], or {!Rtlf_model.Job.dummy} when [c] is idle. *)

val core_of : t -> jid:int -> int
(** The core whose slot holds [jid] (a job's, so [≥ 0]: an idle slot
    holds the dummy's [-1]), scanning the [m] slots, or [-1] when no
    core does. *)

val vacate : t -> jid:int -> unit
(** Empty the slot holding [jid], if any. *)

val place : t -> int -> Rtlf_model.Job.t -> unit
(** Put a job into core [c]'s running slot. *)

val any_running : t -> bool
(** Is any core's slot occupied? *)

val note_migration : t -> unit
(** Count one cross-core migration. *)

val queues : t -> Run_queue.t array
(** Per-core run queues (empty array under global dispatch). *)

val busy : t -> int array
(** Per-core executed ns (including spin burn). Callers may mutate. *)

val migrations : t -> int
(** Total migrations counted so far. *)
