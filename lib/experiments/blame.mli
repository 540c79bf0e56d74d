(** Blame experiment: where sojourn time goes as load grows.

    Sweeps load across the Theorem-3 operating range under lock-based
    and lock-free sharing, attributes every traced run with
    {!Rtlf_obs.Attribution}, and tabulates the per-component share of
    total sojourn (own / retry / blocked / preempted / sched / abort /
    idle). The crossover the theorem predicts shows up here as a
    decomposition shift: the lock-based blocked share climbs with load
    while the lock-free runs pay a bounded retry share instead. *)

type row = {
  load : float;
  sync_name : string;
  aur : float;
  resolved : int;      (** jobs attributed *)
  sojourn_ns : int;    (** total sojourn across resolved jobs *)
  own : float;         (** component shares of [sojourn_ns], sum to 1 *)
  retry : float;
  blocked : float;
  preempted : float;
  sched : float;
  abort : float;
  idle : float;
  conservation_ok : bool;
}

val compute :
  ?mode:Common.mode -> ?jobs:int -> unit -> row list
(** One row per (load, discipline) point, loads ascending, lock-based
    before lock-free at equal load. *)

val run : ?mode:Common.mode -> ?jobs:int -> Format.formatter -> unit
(** Render the sweep as per-discipline tables and the conservation
    summary. Raises [Failure] if any run violates the conservation
    invariant (CI runs this with [--fast]). *)
