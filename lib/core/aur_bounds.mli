(** Lemmas 4 and 5: long-run bands on the accrued utility ratio (AUR).

    For feasible task sets with non-increasing TUFs under UAM
    [⟨lᵢ, aᵢ, Wᵢ⟩] and RUA scheduling, the AUR converges into

    {v Σ (lᵢ/Wᵢ)·Uᵢ(worst sojournᵢ) / Σ (lᵢ/Wᵢ)·Uᵢ(0)
         < AUR <
       Σ (aᵢ/Wᵢ)·Uᵢ(best sojournᵢ)  / Σ (aᵢ/Wᵢ)·Uᵢ(0) v}

    where the best sojourn is [uᵢ + t_acc·mᵢ] and the worst adds the
    interference and blocking (lock-based, Lemma 5) or retry
    (lock-free, Lemma 4) terms. *)

type band = { lower : float; upper : float }
(** An AUR interval; both ends are in [\[0, 1\]] for non-increasing
    TUFs. *)

val interference_estimate :
  tasks:Rtlf_model.Task.t list -> i:int -> per_job_cost:(Rtlf_model.Task.t -> float) -> float
(** [interference_estimate ~tasks ~i ~per_job_cost] is a simple
    worst-case interference bound for task [i]: every job any other
    task can release while a [Tᵢ] job is live runs to completion ahead
    of it — [Σ_{j≠i} aⱼ(⌈Cᵢ/Wⱼ⌉+1)·cost(Tⱼ)], capped at [Cᵢ] (beyond
    its critical time the job is gone). *)

val lock_free :
  tasks:Rtlf_model.Task.t list ->
  s:float ->
  ?interference:(int -> float) ->
  unit ->
  band
(** [lock_free ~tasks ~s ()] is Lemma 4's band. Per task, the best
    sojourn is [uᵢ + s·mᵢ]; the worst adds interference [Iᵢ] (defaults
    to {!interference_estimate} with per-job cost [uⱼ + s·mⱼ]) and
    [Rᵢ = s·(3aᵢ + 2xᵢ)] (Theorem 2). *)

val lock_based :
  tasks:Rtlf_model.Task.t list ->
  r:float ->
  ?interference:(int -> float) ->
  unit ->
  band
(** [lock_based ~tasks ~r ()] is Lemma 5's band, with
    [Bᵢ = r·min(mᵢ, nᵢ)], [nᵢ = 2aᵢ + xᵢ]. *)

val contains : ?eps:float -> band -> float -> bool
(** [contains b v] is [true] iff
    [b.lower - eps <= v <= b.upper + eps]. The default [eps] of 0.01
    absorbs the lemmas' weight-extremisation step: the upper (lower)
    bound replaces every task's realised job count by its UAM maximum
    (minimum) simultaneously, which is not exactly extremal for the
    ratio when tasks have unequal per-task utility ratios, so a
    measured AUR can exceed the nominal band by a sliver. *)
