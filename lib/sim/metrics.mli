(** Aggregation of simulation results across repeated seeded runs.

    The paper reports each data point as an average over thousands of
    arrivals with a 95 % confidence interval; we reproduce that by
    running each configuration under several seeds and summarising. *)

type point = {
  aur : Rtlf_engine.Stats.summary;
  cmr : Rtlf_engine.Stats.summary;
  access_ns : Rtlf_engine.Stats.summary;
      (** mean measured access time per run (the r or s of Fig. 8) *)
  released : int;  (** jobs resolved across runs *)
  migrations_total : int;
      (** cross-core migrations across runs (0 unless multicore global
          dispatch) *)
}
(** One experiment point aggregated over runs. *)

val aggregate : Simulator.result list -> point
(** [aggregate results] summarises repeated runs of one
    configuration. *)

val repeat :
  ?jobs:int ->
  seeds:int list ->
  run:(seed:int -> Simulator.result) ->
  unit ->
  point
(** [repeat ~seeds ~run] runs one configuration under each seed and
    aggregates. Runs fan out across [jobs] domains (default: one per
    core, {!Rtlf_engine.Pool.default_jobs}); each run owns its PRNG
    and accumulators, and aggregation folds results in seed order, so
    the point is bit-identical for every [jobs] value. [run] must be
    domain-safe — {!Simulator.run} partially applied to a config
    is. *)
