(** Static vs dynamic scheduling overhead — an experiment the paper
    never ran (ROADMAP item 4).

    Each point runs the same seeded workload twice, once per
    {!Rtlf_sim.Simulator.sched_mode}, asserts every figure-level metric
    of the two results is bit-identical (raising [Failure] otherwise —
    this experiment doubles as an end-to-end equivalence gate in CI),
    and reports how the static layer served its decides: pattern-table
    hits, delegations to the dynamic decider, and the wall-clock cost
    of both runs.

    Three regimes probe the serving profile: [sparse] (light load —
    isolated releases replay ahead-of-time singleton templates),
    [steady] (the paper's base AL), and [overload] (AL > 1 — deadline
    misses and aborts leave few fresh releases, so nearly every decide
    is delegated; the point is that the results still match bit for
    bit). *)

type row = {
  regime : string;
  n_tasks : int;
  seeds : int;
  stats : Rtlf_core.Static_mode.stats;  (** summed over the seeds *)
  dyn_s : float;     (** total wall seconds, dynamic runs *)
  static_s : float;  (** total wall seconds, static runs *)
}

val compute : ?mode:Common.mode -> ?jobs:int -> unit -> row list

val run : ?mode:Common.mode -> ?jobs:int -> Format.formatter -> unit
(** Print the serving-profile table. *)
