(** Seeded synthesis of UAM task sets at a target approximate load.

    Mirrors the paper's experimental setups (§6): [n] tasks sharing [k]
    queues, arriving under UAM, with step or heterogeneous TUF classes,
    generated so that the approximate load [AL = Σ uᵢ/Cᵢ] hits a
    target. Generation is deterministic in the seed. *)

type tuf_class =
  | Step_only      (** homogeneous class: downward steps (Fig. 10/12) *)
  | Heterogeneous
      (** step + linearly-decreasing + parabolic mix (Fig. 11/13/14) *)

type spec = {
  n_tasks : int;
  n_objects : int;
  target_al : float;     (** Σ uᵢ/Cᵢ to aim for *)
  tuf_class : tuf_class;
  mean_exec : int;       (** mean private compute uᵢ, ns *)
  accesses_per_job : int;(** mᵢ: shared-object accesses per job *)
  access_work : int;     (** data work per access, ns *)
  burst : int;           (** UAM aᵢ (l is 1) *)
  window_factor : float; (** Wᵢ = window_factor · Cᵢ, must be ≥ 1 *)
  abort_cost : int;      (** exception-handler cost, ns *)
  readers : int;
      (** the last [readers] tasks perform their accesses as {e reads}
          (they never invalidate lock-free attempts) — the reader tasks
          of Figure 14 *)
  seed : int;
}

val default : spec
(** The paper's base configuration: 10 tasks, 10 objects, AL 0.4, step
    TUFs, 200 µs mean execution, 4 accesses/job of 500 ns each, burst
    2, window factor 1.0 (W = C, so utilization tracks AL), zero abort
    cost, seed 1. *)

val make : spec -> Rtlf_model.Task.t list
(** [make spec] synthesises the task set:
    - per-task compute [uᵢ] is drawn log-uniformly within ±40 % of
      [mean_exec];
    - critical times satisfy [uᵢ/Cᵢ = AL/n] exactly, so
      [Σ uᵢ/Cᵢ = AL];
    - arrival windows are scaled by the generator's empirical
      arrivals-per-window for the chosen burst, so the {e offered
      utilization} also tracks AL — bursty task sets do not silently
      overload;
    - TUF heights are uniform in [\[20, 100\]]; the heterogeneous class
      cycles step → linear → parabolic;
    - each job performs [accesses_per_job] accesses, spread round-robin
      over the objects starting at the task's index.

    Raises [Invalid_argument] with a ["Workload: "]-prefixed message
    naming the bad value on nonsensical specs (no tasks, non-positive
    or non-finite load, window factor below 1, …). *)

val actual_load : Rtlf_model.Task.t list -> float
(** [actual_load tasks] recomputes [Σ uᵢ/Cᵢ] from the synthesised
    set — equals the target up to integer rounding. *)

val pp_spec : Format.formatter -> spec -> unit
(** [pp_spec fmt spec] prints the headline parameters. *)
