(** Blame graphs: who cost whom, aggregated from {!Attribution}.

    Attribution charges name a culprit {e job}; postmortems want
    culprit {e tasks} — "task 3's lock holds cost task 1 a total of
    840us" is actionable, individual jids are noise. This module folds
    an {!Attribution.t} into a task→task edge list weighted by
    nanoseconds and labelled by cause (blocking, preemption, lock-free
    retry, abort handling) and by the shared object that mediated it,
    and renders the result three ways: the ["rtlf-blame-v1"] JSON
    document, a plain-text postmortem table ([rtlf explain]), and —
    via {!Chrome_trace.flow_events} — Perfetto flow arrows. *)

type cause = Blocking | Preemption | Retrying | Abort_handling

type edge = {
  victim_task : int;
  culprit_task : int;  (** [-1] when the culprit job is unknown *)
  cause : cause;
  obj : int;           (** mediating object; [-1] when none *)
  ns : int;            (** total nanoseconds across all victim jobs *)
  charges : int;       (** distinct (victim job, culprit job) pairs *)
}

type t = {
  edges : edge list;  (** sorted by [ns] descending *)
  total_ns : int;     (** sum over all edges *)
}

val of_attribution : Attribution.t -> t
(** Fold every resolved job's charges into task-level edges. [Own],
    [Sched] and [Idle] charges carry no culprit and are excluded; a
    charge whose culprit jid never arrived in the trace gets
    [culprit_task = -1]. *)

val to_json : t -> Json.t
(** The ["rtlf-blame-v1"] document: schema marker, [total_ns], and one
    object per edge with [victim_task], [culprit_task], [cause],
    [obj], [ns], [charges]. *)

val render :
  ?top:int ->
  ?task:int ->
  Format.formatter ->
  t ->
  unit
(** [render fmt t] prints the postmortem edge table. [?top] keeps only
    the K heaviest edges (a "… +N more" footer reports the cut);
    [?task] keeps edges where the task is victim or culprit. *)

val render_job : Format.formatter -> Attribution.job -> unit
(** Per-job drill-down: the sojourn decomposition with one line per
    component (ns and share), the per-culprit charge list, and — when
    utility was decomposed — the utility-loss split. *)

val render_summary :
  Format.formatter -> Attribution.t -> unit
(** Aggregate decomposition across all resolved jobs: total ns per
    component with shares of total sojourn, conservation status, job
    counts. *)
