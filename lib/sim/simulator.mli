(** Preemptive multiprocessor RTOS simulator.

    Substitutes for the paper's QNX/Pentium-III testbed (§6),
    generalised to [m] cores. Virtual time is integer nanoseconds and
    global: scheduler invocations and abort handlers are serialized and
    advance the one clock (they stall every core). The simulator:

    - releases jobs according to each task's UAM law (seeded,
      deterministic), holding arrivals and critical-time expiries in one
      {!Rtlf_engine.Event_queue} binary heap (equal times pop in
      insertion order);
    - invokes the configured dispatch policy at every scheduling event —
      job arrival, departure, critical-time expiry, every lock release
      and, for lock-based sharing, every lock request — charging
      [sched_base × decisions + sched_per_op × ops] ns of CPU per
      invocation, where [ops] is the algorithms' own abstract operation
      count (§3.6) plus 8 ops per committed cross-core migration;
    - executes each core's dispatched job's compute/access segments,
      charging blocking (lock-based), optimistic retries (lock-free),
      or busy-wait spinning (spin) at access boundaries;
    - aborts jobs whose critical time expires, running their exception
      handlers and releasing their locks (§3.5).

    At [cores = 1] (the default) the engine reduces exactly — trace for
    trace — to the historical single-CPU semantics; the frozen
    {!Single_ref} copy and the differential suite in [test_smp_diff]
    pin this. *)

type sched_kind =
  | Edf      (** deadline baseline (no lock awareness) *)
  | Edf_pip  (** EDF with priority inheritance (Sha et al. [23]) *)
  | Rua      (** RUA, specialised by the sync discipline *)

type sched_mode =
  | Dynamic  (** the deciders interpret the task set on every invocation *)
  | Static
      (** serve fresh synchronized releases from the release-pattern
          table of {!Rtlf_core.Static_mode}, delegating every other
          decide to the dynamic decider. Decisions and [ops] charges
          are bit-identical to [Dynamic] — pinned by the static
          differential suite — so every figure-level metric matches;
          only wall-clock decide cost changes. Requires a lock-oblivious decider: [Edf], or [Rua]
          under lock-free/spin/ideal sync ({!run} raises
          [Invalid_argument] otherwise). *)

type config = {
  tasks : Rtlf_model.Task.t list;  (** unique ids [0 .. n−1] expected *)
  sync : Sync.t;
  sched : sched_kind;
  n_objects : int;
  horizon : int;                   (** stop at this virtual time, ns *)
  seed : int;
  sched_base : int;                (** fixed ns per scheduler decision *)
  sched_per_op : int;              (** ns per abstract scheduler op *)
  retry_on_any_preemption : bool;
      (** ablation: Lemma 1's adversary — any preemption inside a
          lock-free attempt forces a retry, not just real conflicts *)
  trace : bool;                    (** record a {!Trace.t} *)
  trace_capacity : int option;
      (** bound the trace to a drop-oldest ring buffer of this many
          entries; [None] keeps the full history *)
  cores : int;         (** number of cores, ≥ 1 *)
  dispatch : Cores.policy;  (** global or partitioned dispatch *)
  mode : sched_mode;
}

val config :
  tasks:Rtlf_model.Task.t list ->
  sync:Sync.t ->
  ?sched:sched_kind ->
  ?n_objects:int ->
  horizon:int ->
  ?seed:int ->
  ?sched_base:int ->
  ?sched_per_op:int ->
  ?retry_on_any_preemption:bool ->
  ?trace:bool ->
  ?trace_capacity:int ->
  ?cores:int ->
  ?dispatch:Cores.policy ->
  ?mode:sched_mode ->
  unit ->
  config
(** [config ~tasks ~sync ~horizon ()] fills in defaults: RUA
    scheduling, object count inferred from the tasks' accesses, seed 1,
    [sched_base = 200] ns, [sched_per_op = 25] ns, realistic conflict
    detection, no trace (and, when tracing, an unbounded trace), one
    core, global dispatch, dynamic scheduling mode. *)

type task_result = {
  task_id : int;
  released : int;   (** jobs resolved (completed + aborted) *)
  completed : int;
  met : int;        (** completed strictly before the critical time *)
  aborted : int;
  accrued : float;
  max_possible : float;  (** Σ Uᵢ(0) over resolved jobs *)
  total_retries : int;
  max_retries : int;     (** worst per-job retry count (Theorem 2) *)
  retry_tails : Rtlf_engine.Stats.P2.tails;
      (** streaming P² percentiles of per-job retry counts — the
          empirical tail Theorem 2's budget bounds *)
  sojourn : Rtlf_engine.Stats.summary;  (** of completed jobs, ns *)
}

type result = {
  sync_name : string;
  sched_name : string;
  dispatch_name : string;  (** ["global" | "partitioned"] *)
  cores : int;
  final_time : int;
  released : int;
  completed : int;
  met : int;
  aborted : int;
  in_flight : int;        (** unresolved at the horizon *)
  accrued : float;
  max_possible : float;
  aur : float;            (** accrued / max_possible *)
  cmr : float;            (** met / released *)
  retries_total : int;
  preemptions : int;
  blocked_events : int;
      (** lock-based blocking waits plus spin busy-waits *)
  migrations : int;       (** cross-core migrations (global dispatch) *)
  sched_invocations : int;
  sched_overhead : int;   (** total ns charged to scheduling *)
  busy : int;             (** total ns executing job code, all cores *)
  per_core_busy : int array;
      (** per-core executed ns (including spin busy-wait burn);
          sums to {!result.busy} *)
  access_samples : Rtlf_engine.Stats.summary;
      (** per-access wall durations — the measured r or s (§6.1) *)
  sojourn_samples : float array;
      (** sojourn of every completed job, ns (all tasks pooled) *)
  sojourn_hist : Rtlf_engine.Stats.histogram;
      (** distribution of {!result.sojourn_samples} *)
  blocking_hist : Rtlf_engine.Stats.histogram;
      (** distribution of per-wait blocking/spinning spans, ns *)
  sched_hist : Rtlf_engine.Stats.histogram;
      (** distribution of per-invocation scheduler costs, ns *)
  contention : Contention.t array;  (** per-object profile, by index *)
  per_task : task_result array;  (** indexed by task id *)
  audit : Audit.report;
      (** Theorem-2 budget audit: armed for lock-free + RUA runs,
          every resolved job checked against its task's retry budget *)
  trace : Trace.t;
  static : Rtlf_core.Static_mode.stats option;
      (** static-mode serving statistics (decides, pattern hits,
          delegations), summed over scheduler instances;
          [None] for dynamic runs *)
}

val run : config -> result
(** [run cfg] executes the simulation to the horizon and summarises.
    Raises [Invalid_argument] on inconsistent configs (duplicate task
    ids, out-of-range object references, non-positive horizon, fewer
    than one core). *)

val scheduler_name : config -> string
(** [scheduler_name cfg] is the name of the scheduler [run] would
    instantiate. *)
