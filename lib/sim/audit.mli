(** Runtime Theorem-2 budget auditor.

    Theorem 2 ({!Rtlf_core.Retry_bound}) bounds the total lock-free
    retries a job can suffer across its lifetime:
    [fᵢ ≤ 3aᵢ + Σ_{j≠i} 2aⱼ(⌈Cᵢ/Wⱼ⌉ + 1)]. The auditor turns that
    analytical claim into a runtime check: per-task budgets are
    precomputed when the simulation starts, every job is compared
    against its task's budget the moment it resolves (completes or
    aborts), and any excess is recorded as a violation — surfaced in
    reports, the metrics JSON, and the CLI's exit code.

    The bound is proved for RUA scheduling of lock-free sharing under
    the UAM on one processor, so the simulator arms the auditor only
    for that configuration ([audited = false] otherwise — lock-based
    jobs never retry, non-UA schedulers are outside the theorem, and on
    m > 1 cores writers on other cores can invalidate attempts the
    bound does not count). A violation therefore
    means a real soundness bug in the scheduler, the retry accounting,
    or the bound itself. *)

type violation = {
  jid : int;      (** the offending job *)
  task_id : int;  (** its task *)
  retries : int;  (** retries it actually suffered *)
  bound : int;    (** its Theorem-2 budget *)
  time : int;     (** simulation time of resolution, ns *)
}

type report = {
  audited : bool;       (** was the configuration inside Theorem 2? *)
  checked : int;        (** jobs compared against their budget *)
  bounds : int array;   (** per-task-id budget (index = task id) *)
  violations : violation list;  (** chronological; empty when sound *)
}

type t
(** Mutable auditor state, one per simulation run. *)

val create : tasks:Rtlf_model.Task.t list -> enabled:bool -> t
(** [create ~tasks ~enabled] precomputes every task's Theorem-2 budget
    (bounds are computed even when disabled, so reports can always
    show them). *)

val observe : t -> task_id:int -> jid:int -> retries:int -> time:int -> unit
(** [observe a ~task_id ~jid ~retries ~time] audits one resolved job.
    No-op when the auditor is disabled. O(1). *)

val report : t -> report

val ok : report -> bool
(** [ok r] is [true] when there is no violation (vacuously when not
    audited). *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
