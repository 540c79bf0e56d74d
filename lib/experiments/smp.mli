(** SMP sweep: the Fig 8–14 style accrued-utility comparison re-run per
    core count.

    For each m in the swept core counts (default [{1; 2; 4}]) and each
    dispatch policy (global at m = 1, global + partitioned beyond), the
    four sync disciplines — lock-based, lock-free, and both spin-lock
    baselines (ticket, MCS) — run over a workload whose offered load
    scales with m so the multicore points stay contended rather than
    trivially accruing 100 %. *)

type cell = {
  sync_name : string;
  aur : Rtlf_engine.Stats.summary;
  cmr : Rtlf_engine.Stats.summary;
  migrations : float;  (** mean cross-core migrations per run *)
}

type row = {
  cores : int;
  dispatch : Rtlf_sim.Simulator.dispatch;
  cells : cell list;  (** one per sync discipline, in {!syncs} order *)
}

val syncs : (string * Rtlf_sim.Sync.t) list
(** The compared disciplines: lock-based, lock-free, spin-ticket,
    spin-mcs. *)

val spec : cores:int -> Rtlf_workload.Workload.spec
(** Workload for an m-core point: target AL ≈ 0.55·m, at least 3·m
    tasks. *)

val points :
  ?cores:int list -> unit -> (int * Rtlf_sim.Simulator.dispatch) list
(** The (core count, dispatch) grid over [cores] (default
    [[1; 2; 4]], the acceptance sweep); [Partitioned] only appears for
    m > 1 (both policies coincide on one core). *)

val compute :
  ?mode:Common.mode -> ?jobs:int -> ?cores:int list -> unit -> row list

val run :
  ?mode:Common.mode ->
  ?jobs:int ->
  ?cores:int list ->
  Format.formatter ->
  unit
(** Print one AUR/CMR/migrations table per (cores, dispatch) point. *)
