(** Theorem 3: worst-case sojourn-time comparison of lock-based and
    lock-free sharing under RUA and the UAM.

    Notation (per task [Tᵢ]): [r] / [s] are lock-based / lock-free
    object access times; [mᵢ] the number of shared-object accesses per
    job; [nᵢ] the number of jobs that could block [Jᵢ]; [aᵢ] the UAM
    burst size; [xᵢ] as in {!Retry_bound.x_i}; [uᵢ] the private compute
    time; [iᵢ] the worst-case interference.

    Worst-case sojourns:
    - lock-based: [uᵢ + Iᵢ + r·mᵢ + Bᵢ] with [Bᵢ = r·min(mᵢ, nᵢ)];
    - lock-free:  [uᵢ + Iᵢ + s·mᵢ + Rᵢ] with [Rᵢ = s·fᵢ] (Theorem 2).

    Theorem 3: lock-free wins whenever
    - [s/r < 2/3] (sufficient), if [mᵢ ≤ nᵢ];
    - [s/r < (mᵢ+nᵢ)/(mᵢ+3aᵢ+2xᵢ)], if [mᵢ > nᵢ]. *)

type params = {
  r : float;   (** lock-based access time, ns *)
  s : float;   (** lock-free access time, ns *)
  m_i : int;   (** accesses per job *)
  n_i : int;   (** jobs that could block Jᵢ *)
  a_i : int;   (** UAM burst size of Tᵢ *)
  x_i : int;   (** Σ_{j≠i} aⱼ(⌈Cᵢ/Wⱼ⌉+1) *)
  u_i : float; (** private compute, ns *)
  interference : float;  (** worst-case interference Iᵢ, ns *)
}

val blocking_time : params -> float
(** [blocking_time p] is [Bᵢ = r·min(mᵢ, nᵢ)]. *)

val worst_sojourn_lock_based : params -> float
(** [worst_sojourn_lock_based p] is [uᵢ + Iᵢ + r·mᵢ + Bᵢ]. *)

val worst_sojourn_lock_free : params -> float
(** [worst_sojourn_lock_free p] is [uᵢ + Iᵢ + s·mᵢ + Rᵢ]. *)

val crossover_ratio : params -> float
(** [crossover_ratio p] is the exact threshold on [s/r] below which
    the lock-free worst case is strictly smaller:
    [(mᵢ + min(mᵢ,nᵢ)) / (mᵢ + 3aᵢ + 2xᵢ)]. *)

val lock_free_wins : params -> bool
(** [lock_free_wins p] compares the two worst-case sojourns
    directly. *)

val sufficient_condition : params -> bool
(** [sufficient_condition p] is Theorem 3's statement: [s/r < 2/3]
    when [mᵢ ≤ nᵢ], else [s/r < (mᵢ+nᵢ)/(mᵢ+3aᵢ+2xᵢ)]. Implies
    {!lock_free_wins} when [nᵢ ≤ 2aᵢ + xᵢ] (always true under UAM). *)
