(** Span reconstruction from raw simulator traces.

    The trace is a flat event stream; the quantities the paper argues
    about — blocking spans, retry (wasted-attempt) spans, scheduler
    overhead — are intervals. This module rebuilds them:

    - {e running}: dispatch ([Start]) to the next preemption, block,
      completion or abort of the same job;
    - {e blocking}: [Block] to the matching [Wake] (or the job's
      abort / end of trace);
    - {e retry}: start of an access attempt (dispatch, wake, previous
      retry or segment boundary) to the [Retry] that discarded it —
      the work a conflict wasted;
    - {e access}: attempt start to [Access_done] — the measured access
      span (the r or s of §6.1);
    - {e sched}: each scheduler invocation and its charged cost.

    Intervals cut off by the horizon are closed at the last traced
    time, so exporters never see dangling spans. This is the one place
    that turns trace entries into intervals: {!Timeline} and
    {!Chrome_trace} draw from it. *)

type kind = Running | Blocking | Retry | Access | Sched

type span = {
  kind : kind;
  jid : int;        (** owning job; [-1] for scheduler spans *)
  obj : int option; (** shared object, for blocking/retry/access *)
  start : int;      (** ns *)
  stop : int;       (** ns; [stop >= start] *)
  ops : int;        (** scheduler op count; [0] for job spans *)
}

type t = {
  running : span list;
  blocking : span list;
  retries : span list;
  accesses : span list;
  sched : span list;
  task_of : (int, int) Hashtbl.t;
      (** jid → task id, from [Arrive] events *)
  last_time : int;            (** greatest timestamp in the trace *)
}

val of_trace : Rtlf_sim.Trace.t -> t
(** [of_trace trace] reconstructs all span families in one walk of the
    trace, each family in the order its spans close. On a trace whose
    ring buffer dropped entries ({!Rtlf_sim.Trace.dropped}) a closing
    entry without its opening one yields no running or blocking span,
    and an attempt without its start is zero-width. *)

val task_of : t -> jid:int -> int option
(** [task_of t ~jid] is the task that released [jid], if its arrival
    was traced. *)

val kind_name : kind -> string
(** Lower-case label used by the exporters. *)

val duration : span -> int
(** [duration s] is [s.stop - s.start] in ns. *)
