(** Common scheduler interface.

    The simulator invokes the scheduler at every scheduling event (job
    arrival, departure, critical-time expiry — plus lock and unlock
    requests for lock-based sharing) and obeys the returned decision.
    Each invocation reports its abstract operation count, from which
    the simulator charges virtual scheduling overhead — the mechanism
    behind the paper's Figure 9. *)

type decision = {
  dispatch : Rtlf_model.Job.t option;
      (** job to run next; [None] leaves the CPU idle *)
  aborts : Rtlf_model.Job.t list;
      (** deadlock victims to abort before dispatching (§3.3) *)
  rejected : int list;
      (** jids excluded from the feasible schedule this round —
          informational; they stay live and may be reconsidered *)
  schedule : Rtlf_model.Job.t list;
      (** the constructed schedule, head first *)
  ops : int;  (** abstract operations consumed by this invocation *)
}

type t = {
  name : string;
  decide :
    now:int ->
    jobs:Rtlf_model.Job.t array ->
    remaining:(Rtlf_model.Job.t -> int) ->
    decision;
}
(** A pluggable scheduler: [decide] receives the live jobs (ready,
    running and blocked) and a remaining-cost estimator that includes
    synchronisation overheads. The array is read-only to the scheduler
    and not retained past the call, so the simulator can hand over its
    cached live view without copying. Entries that are not live
    (completed/aborted) are tolerated and ignored. *)
