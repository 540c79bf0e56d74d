(** Earliest-deadline-first baseline.

    Dispatches the runnable job with the earliest absolute critical
    time. Optimal for underloaded step-TUF task sets without object
    sharing — the regime in which RUA must coincide with it (§1, §3.4).
    Blocked jobs are skipped; no deadlock handling. *)

val make : unit -> Scheduler.t
(** [make ()] is an EDF scheduler instance. *)

(** {2 Shared with EDF+PIP} *)

val keyed :
  name:string ->
  key:(Rtlf_model.Job.t array -> Rtlf_model.Job.t -> int) ->
  ops:(total:int -> live:int -> int) ->
  Scheduler.t
(** [keyed ~name ~key ~ops] is a scheduler whose schedule is the
    runnable jobs of [jobs] in ascending [(key jobs j, jid)] order,
    dispatching the head and rejecting and aborting nothing. It charges
    [ops ~total ~live] for [total] entries of which [live] are live.
    {!make} is [keyed] on the absolute critical time. *)
