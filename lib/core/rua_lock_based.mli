(** Lock-based RUA (Wu et al. [27], as summarised in §3).

    At every scheduling event the algorithm:

    + computes each live job's dependency chain by following lock
      request-and-ownership edges (§3.1);
    + detects dependency cycles — deadlocks, possible under nested
      critical sections — and selects the cycle member with the least
      PUD for abortion (§3.3);
    + computes each job's PUD over its whole chain (§3.2);
    + examines jobs in non-increasing PUD order, speculatively
      inserting each job {e with its dependents} into the tentative
      schedule in ECF order with dependency-respecting clamping,
      keeping the insertion only if feasible (§3.4, §3.4.1 — rollback
      in place; the retained [Reference] oracle still copies);
    + dispatches the earliest runnable job of the resulting schedule.

    Asymptotic cost O(n² log n) (§3.6); the reported [ops] count grows
    accordingly and drives the simulator's overhead charging.

    Two paths compute the same decision. While some job waits in the
    lock table ({!Rtlf_model.Lock_manager.any_waiting}), the steps above
    run as written. Otherwise every chain is the job alone and no cycle
    exists, so the decider sorts and admits single jobs in flat arrays
    and charges in closed form the [ops] the chain steps charge on
    singleton chains. Both paths charge identical [ops]. *)

val make : locks:Rtlf_model.Lock_manager.t -> Scheduler.t
(** [make ~locks] is a lock-based RUA instance reading dependencies
    from [locks]. *)
