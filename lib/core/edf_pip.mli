(** EDF with priority inheritance (Sha, Rajkumar & Lehoczky [23]) — the
    classical lock-based baseline the paper's §1.1 contrasts UA
    scheduling against.

    Dispatching is earliest-critical-time-first, but a job holding a
    lock {e inherits} the earliest critical time among the jobs
    transitively blocked on it, bounding priority inversion. Unlike
    RUA, there is no notion of utility: during overloads EDF+PIP
    thrashes (the classic domino of misses) where UA schedulers shed
    low-return work — which is exactly the paper's case for RUA. *)

val make : locks:Rtlf_model.Lock_manager.t -> Scheduler.t
(** [make ~locks] is an EDF+PIP instance reading blocking relations
    from [locks]. *)

val effective_critical_time :
  locks:Rtlf_model.Lock_manager.t ->
  jobs:Rtlf_model.Job.t array ->
  Rtlf_model.Job.t ->
  int
(** [effective_critical_time ~locks ~jobs j] is [j]'s absolute critical
    time lowered to the minimum over every live job of [jobs]
    transitively blocked on [j] — the inherited priority. This is the
    fold {!make}'s decide ranks jobs by; exposed for testing. *)
