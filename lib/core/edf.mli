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
  lower:(Rtlf_model.Job.t array -> int array -> unit) ->
  ops:(total:int -> live:int -> int) ->
  Scheduler.t
(** [keyed ~name ~lower ~ops] is a scheduler whose schedule is the
    runnable jobs of [jobs] in ascending [(key, jid)] order, dispatching
    the head and rejecting and aborting nothing. Each runnable position
    [i]'s key starts as [jobs.(i)]'s absolute critical time; [lower jobs
    keys] then runs once per decide and may lower [keys.(i)] at any
    runnable position (other positions hold stale values and are never
    read). It charges [ops ~total ~live] for [total] entries of which
    [live] are live. {!make} lowers nothing. *)
