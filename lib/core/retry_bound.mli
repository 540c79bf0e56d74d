(** Theorem 2: upper bound on lock-free retries under the UAM.

    For jobs of task [Tᵢ] arriving under UAM [⟨1, aᵢ, Wᵢ⟩] and
    scheduled by RUA, the total number of retries [fᵢ] of a job [Jᵢ]
    across all its lock-free object accesses is bounded by

    {v fᵢ ≤ 3aᵢ + Σ_{j≠i} 2aⱼ (⌈Cᵢ/Wⱼ⌉ + 1) v}

    — the number of scheduling events that can occur within the job's
    lifetime [\[t₀, t₀+Cᵢ\]] (Lemma 1: retries are bounded by
    scheduling events under a UA scheduler). The bound is independent
    of how many objects the job accesses. *)

val x_i : tasks:Rtlf_model.Task.t list -> i:int -> int
(** [x_i ~tasks ~i] is the paper's [xᵢ = Σ_{j≠i} aⱼ (⌈Cᵢ/Wⱼ⌉ + 1)]:
    the most jobs other tasks can release while a [Tᵢ] job is live.
    [i] is a task id present in [tasks]; raises [Invalid_argument]
    otherwise. *)

val bound : tasks:Rtlf_model.Task.t list -> i:int -> int
(** [bound ~tasks ~i] is Theorem 2's [3aᵢ + 2xᵢ]. *)

val n_i_upper_bound : tasks:Rtlf_model.Task.t list -> i:int -> int
(** [n_i_upper_bound ~tasks ~i] is [2aᵢ + xᵢ], the bound on [nᵢ] (the
    number of jobs that could block [Jᵢ]) used in Theorem 3's proof. *)
