(** Potential utility density (§3.2).

    The PUD of a job measures the utility accruable per unit time by
    executing the job together with the jobs it depends on (its
    dependency chain), assuming the aggregate runs contiguously from
    the current instant and each member releases its resources at its
    estimated completion:

    {v PUD(Tᵢ) = (Uᵢ(t_f) + Σ_{Tⱼ ∈ Dep} Uⱼ(tⱼ)) / (t_f − t) v}

    where [tⱼ] is Tⱼ's estimated completion when the chain executes in
    dependency order and [t_f] the estimated completion of the whole
    aggregate. *)

val of_chain :
  now:int ->
  remaining:(Rtlf_model.Job.t -> int) ->
  Rtlf_model.Job.t list ->
  float
(** [of_chain ~now ~remaining chain] computes the PUD of the job at the
    {e tail} of [chain] given the chain in head-first execution order
    (the tail is the dependent job being valued, as produced by
    {!Rtlf_model.Lock_manager.dependency_chain}). A chain with zero
    total remaining work has infinite PUD. Raises [Invalid_argument]
    on an empty chain. *)

val of_job :
  now:int -> remaining:(Rtlf_model.Job.t -> int) -> Rtlf_model.Job.t -> float
(** [of_job ~now ~remaining j] is [of_chain] on the singleton chain —
    the lock-free RUA case where dependencies never arise. *)

val after : float array -> int array -> int -> int -> bool
(** [after pud jid a b] is [true] iff index [a] comes after index [b]
    in {!sort}'s order: [pud.(a) < pud.(b)] by [Float.compare], or
    equal PUDs and [jid.(a) > jid.(b)]. *)

val sort : pud:float array -> jid:int array -> int array -> int -> unit
(** [sort ~pud ~jid perm n] sorts the indices [perm.(0) .. perm.(n-1)]
    in place into the RUA deciders' examination order: non-increasing
    [pud.(i)] by [Float.compare], ties by ascending [jid.(i)]. A
    heapsort: no allocation, O(n log n). *)
