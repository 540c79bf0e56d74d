(** Common scheduler interface.

    The simulator invokes the scheduler at every scheduling event (job
    arrival, departure, critical-time expiry — plus lock and unlock
    requests for lock-based sharing) and obeys the returned decision.
    Each invocation reports its abstract operation count, from which
    the simulator charges virtual scheduling overhead — the mechanism
    behind the paper's Figure 9. *)

type decision = {
  mutable jobs : Rtlf_model.Job.t array;
      (** the [jobs] array the decision was made from; [dispatch] and
          [schedule] are positions into it *)
  mutable dispatch : int;
      (** position of the job to run next — the first runnable entry
          of the schedule; [-1] leaves the CPU idle *)
  mutable aborts : Rtlf_model.Job.t list;
      (** deadlock victims to abort before dispatching (§3.3); [[]]
          unless a dependency cycle was found *)
  mutable rejected : int array;
      (** jids excluded from the feasible schedule this round, in probe
          order, in [rejected.(0) .. rejected.(n_rejected - 1)] —
          informational; they stay live and may be reconsidered *)
  mutable n_rejected : int;
  mutable schedule : int array;
      (** the constructed schedule, head first, as positions into
          [jobs], in [schedule.(0) .. schedule.(length - 1)] *)
  mutable length : int;
  mutable ops : int;  (** abstract operations consumed by this invocation *)
}
(** One scheduling decision.

    {b Ownership.} Each decider instance owns one decision record and
    overwrites it on every call: the record [decide] returns is valid
    until that instance's next [decide], and a caller that keeps a
    decision longer copies what it needs ({!schedule_list},
    {!rejected_list}). The arrays may be longer than their counts; the
    entries past them are stale.

    {b Positions, not pointers.} The schedule holds [int] positions
    into [jobs] rather than [Job.t] values. The record and its arrays
    live across many calls, so they sit in the major heap, where every
    pointer store goes through the write barrier; int stores do not.
    Positions make a decision allocate nothing and store no pointer
    but [jobs]. *)

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
    synchronisation overheads. The array is read-only to the scheduler,
    so the simulator can hand over its cached live view without
    copying; the returned decision references it. Entries that are not
    live (completed/aborted) are tolerated and ignored. *)

val create_decision : unit -> decision
(** An empty decision (no job, idle, nothing rejected, [ops = 0]) for
    a decider instance to own. *)

val set_schedule_capacity : decision -> int -> unit
(** [set_schedule_capacity d n] grows [d.schedule] and [d.rejected]
    to hold at least [n] entries each. Contents are not kept. *)

val dispatch_first_runnable : decision -> unit
(** [dispatch_first_runnable d] sets [d.dispatch] to the first
    runnable entry of the schedule, or [-1]. *)

val of_lists :
  jobs:Rtlf_model.Job.t array ->
  aborts:Rtlf_model.Job.t list ->
  rejected:int list ->
  schedule:Rtlf_model.Job.t list ->
  ops:int ->
  decision
(** A fresh decision from a list-built schedule whose jobs are entries
    of [jobs] (matched physically); the dispatch is the first runnable
    one. For the list-based reference deciders; raises
    [Invalid_argument] if a scheduled job is not in [jobs]. *)

val dispatched : decision -> Rtlf_model.Job.t option
(** The job at [dispatch], if any. *)

val schedule_list : decision -> Rtlf_model.Job.t list
(** The schedule's jobs, head first: a copy that outlives the record. *)

val rejected_list : decision -> int list
(** The rejected jids, in probe order: a copy that outlives the
    record. *)
