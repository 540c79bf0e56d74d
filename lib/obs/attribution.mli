(** Exact causal attribution of per-job sojourn and utility loss.

    A job's sojourn (arrival → completion or abort) is spent somewhere:
    executing, waiting behind a lock holder, preempted by a
    higher-priority job, re-executing a lock-free access an interfering
    writer invalidated, stalled behind the scheduler or behind another
    job's abort handler, or simply idle while nothing ran. This module
    replays a {!Rtlf_sim.Trace.t} in one chronological sweep and
    decomposes every resolved job's sojourn into those named
    components, each charged to the specific culprit job the trace
    identifies (the lock holder, the preemptor, the invalidating
    writer, the aborted job whose handler held the CPU). Which job runs,
    waits or holds an object it reads from the trace walker
    ({!Rtlf_sim.Trace.step}), stepped without a discipline: a
    spin-waiter's wait counts as blocked, not as its own execution.

    {b Conservation invariant.} Times are virtual-time integers and the
    sweep partitions the job's live window, so for every resolved job

    {[ own + retry + blocked + preempted + sched + abort_handler + idle
       = sojourn ]}

    holds {e bit-exactly} — not approximately. {!check} enforces it;
    the property suite asserts it across every sync×sched combination,
    and [rtlf explain] refuses (exit 5) when it fails.

    When the releasing tasks are supplied, each job's utility loss
    ([max_utility − accrued], what its TUF forfeited) is decomposed the
    same way: interference components receive shares proportional to
    their ns share of the delay, and the [self] component is computed
    by subtraction so the float components also sum exactly to the
    loss.

    Attribution needs the complete history: a ring-buffered trace with
    [dropped > 0] entries is refused with [Error] rather than returning
    silently wrong sums. *)

type component =
  | Own            (** the job's own execution (retries excluded) *)
  | Retry          (** re-execution of invalidated lock-free attempts *)
  | Blocked        (** parked behind a lock holder *)
  | Preempted      (** ready but displaced by the running job *)
  | Sched          (** scheduler-invocation cost charged to the CPU *)
  | Abort_handler  (** another job's abort handler held the CPU *)
  | Idle           (** ready with an idle CPU (dispatch latency) *)

type charge = {
  comp : component;
  by : int;   (** culprit jid; [-1] when unknown or not job-caused *)
  obj : int;  (** shared object mediating the charge; [-1] when none *)
  ns : int;
}

type outcome = Completed | Aborted

type uloss = {
  u_self : float;
      (** loss not caused by interference: TUF decay over the job's own
          execution plus the float residual. Defined by subtraction —
          [loss -. (u_retry +. … +. u_idle)] with the interference
          shares summed left-to-right — so reconstructing the loss from
          the components under that same canonical grouping is
          bit-exact (float addition is not associative; the grouping is
          part of the invariant) *)
  u_retry : float;
  u_blocked : float;
  u_preempted : float;
  u_sched : float;
  u_abort : float;
  u_idle : float;
}

type job = {
  jid : int;
  task : int;
  arrival : int;      (** true release time (ns) *)
  resolved_at : int;  (** completion or abort time (ns) *)
  outcome : outcome;
  sojourn : int;      (** [resolved_at - arrival] *)
  own : int;
  retry : int;
  blocked : int;
  preempted : int;
  sched : int;
  abort_handler : int;
  idle : int;
  charges : charge list;
      (** per-culprit detail for the attributed components, merged by
          (component, culprit, object) and sorted by ns descending *)
  max_utility : float;  (** TUF supremum; [0.] without [~tasks] *)
  accrued : float;      (** utility earned; [0.] for aborted jobs *)
  loss : uloss option;  (** present only when [~tasks] was supplied *)
}

type t = {
  jobs : job list;  (** resolved jobs, in resolution order *)
  task_of : (int, int) Hashtbl.t;  (** jid → task id, all traced jobs *)
  in_flight : int;  (** jobs still live when the trace ended *)
  events : int;     (** trace entries consumed *)
  last_time : int;  (** greatest timestamp in the trace *)
  anomalies : int;
      (** retry-transfer clamps (a [Retry] whose [lost] exceeded the
          accumulated own-time); always [0] on simulator traces *)
}

val of_trace :
  ?tasks:Rtlf_model.Task.t list -> Rtlf_sim.Trace.t -> (t, string) result
(** [of_trace trace] attributes every resolved job. [Error] when the
    trace dropped entries (ring-buffer mode) — attribution refuses to
    produce wrong sums. Jobs whose [Arrive] is missing (hand-built
    traces) are ignored. With [~tasks], utility losses are decomposed
    against each task's TUF. *)

val components_total : job -> int
(** [components_total j] is the sum of the seven integer components —
    equal to [j.sojourn] whenever {!check} passes. *)

val interference : job -> int
(** [interference j] is [j.sojourn - j.own]: everything the job did not
    spend executing. *)

val check : t -> (unit, string) result
(** [check t] verifies the conservation invariant on every job: integer
    components sum to the sojourn, and (when present) [u_self] is the
    exact IEEE difference between [max_utility -. accrued] and the
    canonically-ordered interference-share sum. The error lists every
    violating job. *)

val component_name : component -> string
(** Lower-case label: ["own"], ["retry"], ["blocked"], ["preempted"],
    ["sched"], ["abort"], ["idle"]. *)

val find : t -> jid:int -> job option
(** [find t ~jid] is the resolved job [jid], if any. *)
