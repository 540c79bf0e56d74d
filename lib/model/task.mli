(** Static task parameters (§2 task model).

    A task [Tᵢ] bundles an arrival law (UAM), a time constraint (TUF
    with critical time [Cᵢ ≤ Wᵢ]), and an execution profile: [uᵢ] ns of
    private compute interleaved with [mᵢ] accesses to shared objects.
    All jobs of a task share these parameters. *)

type t = private {
  id : int;              (** dense index, unique within a task set *)
  name : string;         (** human-readable label *)
  tuf : Tuf.t;           (** time/utility function; [Uᵢ] *)
  arrival : Uam.t;       (** arrival law [⟨lᵢ, aᵢ, Wᵢ⟩] *)
  exec : int;            (** [uᵢ]: private compute per job, ns *)
  accesses : (int * int) list;
      (** ordered [(object, work ns)] {e write} accesses per job *)
  reads : (int * int) list;
      (** ordered [(object, work ns)] {e read} accesses per job; reads
          never invalidate concurrent lock-free attempts *)
  abort_cost : int;      (** exception-handler execution time, ns *)
  profile : Segment.t list option;
      (** explicit execution profile overriding [exec]/[accesses] —
          used for nested-critical-section workloads (§3.3) *)
}

val make :
  id:int ->
  ?name:string ->
  tuf:Tuf.t ->
  arrival:Uam.t ->
  exec:int ->
  ?accesses:(int * int) list ->
  ?reads:(int * int) list ->
  ?abort_cost:int ->
  unit ->
  t
(** [make ~id ~tuf ~arrival ~exec ()] builds a task. Defaults: [name]
    is ["T<id>"], no accesses (writes) or reads, zero abort cost.
    Raises [Invalid_argument] if [exec < 0], [abort_cost < 0], any
    access work is negative, or the TUF's critical time exceeds the
    arrival window (the model requires [Cᵢ ≤ Wᵢ]). *)

val make_nested :
  id:int ->
  ?name:string ->
  tuf:Tuf.t ->
  arrival:Uam.t ->
  profile:Segment.t list ->
  ?abort_cost:int ->
  unit ->
  t
(** [make_nested ~id ~tuf ~arrival ~profile ()] builds a task with an
    explicit segment profile, permitting nested critical sections via
    [Segment.Lock]/[Segment.Unlock]. The profile must satisfy
    {!Segment.well_nested}; [exec] is derived as the total [Compute]
    span and [accesses] as the flat [Access] list. Raises
    [Invalid_argument] on ill-nested profiles or [Cᵢ > Wᵢ]. *)

val critical_time : t -> int
(** [critical_time task] is [Cᵢ], relative to each job's arrival. *)

val num_accesses : t -> int
(** [num_accesses task] is [mᵢ]: writes plus reads. *)

val segments : t -> Segment.t list
(** [segments task] is the per-job execution profile: accesses spread
    evenly through the private compute. *)

val total_work : t -> int
(** [total_work task] is [uᵢ + Σ access work], the nominal per-job CPU
    demand excluding synchronisation overheads. *)

val utilization : t -> float
(** [utilization task] is the paper's per-task approximate-load term
    [uᵢ / Cᵢ] (private compute over critical time). *)

val approximate_load : t list -> float
(** [approximate_load tasks] is [AL = Σ uᵢ/Cᵢ] (§6.1). *)
