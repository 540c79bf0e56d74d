(** Shared experiment configuration.

    Central definitions of the synchronisation cost constants, run
    modes, and helpers every figure module uses, so the paper's setup
    (10 tasks, 10 queues, lock-based r ≫ lock-free s) is stated in one
    place. *)

type mode = Fast | Full
(** [Fast] shrinks horizons/points/seeds for CI and tests; [Full] is
    the paper-scale run used by the bench harness. *)

val lock_overhead : int
(** Lock-management CPU cost per lock/unlock operation, ns. *)

val cas_overhead : int
(** Per-attempt CAS/validation cost for lock-free accesses, ns. *)

val spin_overhead : int
(** Per acquire/release cost of the spin-lock discipline, ns — between
    the CAS and lock-management costs: no scheduler activations, but a
    real atomic round-trip on the lock word. *)

val access_work : int
(** Data work per queue operation, ns. *)

val sched_base : int
(** Fixed scheduler-invocation cost, ns. *)

val sched_per_op : int
(** Per-abstract-op scheduler cost, ns. *)

val lock_based : Rtlf_sim.Sync.t
(** [Lock_based {overhead = lock_overhead}]. *)

val lock_free : Rtlf_sim.Sync.t
(** [Lock_free {overhead = cas_overhead}]. *)

val spin_ticket : Rtlf_sim.Sync.t
(** [Spin {overhead = spin_overhead; kind = Ticket}]. *)

val spin_mcs : Rtlf_sim.Sync.t
(** [Spin {overhead = spin_overhead; kind = Mcs}]. *)

val seeds : mode -> int list
(** Seeds for repeated runs: 3 in [Fast], 5 in [Full]. *)

val horizon_for : mode -> Rtlf_model.Task.t list -> int
(** [horizon_for mode tasks] picks a virtual horizon long enough for a
    statistically useful number of arrivals: roughly 40 (Fast) or 250
    (Full) windows of the largest task window. *)

val simulate :
  ?mode:mode ->
  ?sync:Rtlf_sim.Sync.t ->
  ?sched:Rtlf_sim.Simulator.sched_kind ->
  ?trace:bool ->
  ?trace_capacity:int ->
  ?cores:int ->
  ?dispatch:Rtlf_sim.Simulator.dispatch ->
  ?sched_mode:Rtlf_sim.Simulator.sched_mode ->
  seed:int ->
  Rtlf_model.Task.t list ->
  Rtlf_sim.Simulator.result
(** [simulate ~seed tasks] runs one simulation with the shared cost
    constants (defaults: [Full] mode, lock-free sync, RUA, no trace,
    one core, global dispatch, dynamic scheduling mode). *)

val measure :
  ?mode:mode ->
  ?jobs:int ->
  ?cores:int ->
  ?dispatch:Rtlf_sim.Simulator.dispatch ->
  sync:Rtlf_sim.Sync.t ->
  Rtlf_model.Task.t list ->
  Rtlf_sim.Metrics.point
(** [measure ~sync tasks] aggregates {!simulate} over the mode's
    seeds, fanned out across [jobs] domains (default: one per core);
    the result is bit-identical for every [jobs] value. *)

val map_points : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_points f points] is {!Rtlf_engine.Pool.map}: every experiment
    sweeps its parameter points through this so [--jobs] parallelises
    the grid while keeping results in input order. *)
