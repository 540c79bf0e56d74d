module Event_queue = Rtlf_engine.Event_queue
module Float_buffer = Rtlf_engine.Float_buffer
module Prng = Rtlf_engine.Prng
module Stats = Rtlf_engine.Stats
module Task = Rtlf_model.Task
module Job = Rtlf_model.Job
module Segment = Rtlf_model.Segment
module Uam = Rtlf_model.Uam
module Resource = Rtlf_model.Resource
module Lock_manager = Rtlf_model.Lock_manager
module Scheduler = Rtlf_core.Scheduler

type sched_kind = Edf | Edf_pip | Rua

(* [Static] wraps each decider instance in [Static_mode] over a
   release-pattern plan built from the task set. Decisions and ops charges
   are bit-identical to [Dynamic] (pinned by the static differential
   suite); only the cost of producing them changes. *)
type sched_mode = Dynamic | Static

type config = {
  tasks : Task.t list;
  sync : Sync.t;
  sched : sched_kind;
  n_objects : int;
  horizon : int;
  seed : int;
  sched_base : int;
  sched_per_op : int;
  retry_on_any_preemption : bool;
  trace : bool;
  trace_capacity : int option;
  cores : int;
  dispatch : Cores.policy;
  mode : sched_mode;
}

let infer_objects tasks =
  let scan = List.fold_left (fun acc (obj, _) -> max acc (obj + 1)) in
  List.fold_left
    (fun acc t ->
      let acc = scan acc t.Task.accesses in
      let acc = scan acc t.Task.reads in
      (* Explicit profiles (nested sections) name objects directly. *)
      match t.Task.profile with
      | None -> acc
      | Some profile ->
        List.fold_left
          (fun acc seg ->
            match seg with
            | Segment.Access { obj; _ } | Segment.Lock obj
            | Segment.Unlock obj ->
              max acc (obj + 1)
            | Segment.Compute _ -> acc)
          acc profile)
    0 tasks

let config ~tasks ~sync ?(sched = Rua) ?n_objects ~horizon ?(seed = 1)
    ?(sched_base = 200) ?(sched_per_op = 25)
    ?(retry_on_any_preemption = false) ?(trace = false) ?trace_capacity
    ?(cores = 1) ?(dispatch = Cores.Global) ?(mode = Dynamic) () =
  let n_objects =
    match n_objects with Some n -> n | None -> infer_objects tasks
  in
  {
    tasks;
    sync;
    sched;
    n_objects;
    horizon;
    seed;
    sched_base;
    sched_per_op;
    retry_on_any_preemption;
    trace;
    trace_capacity;
    cores;
    dispatch;
    mode;
  }

type task_result = {
  task_id : int;
  released : int;
  completed : int;
  met : int;
  aborted : int;
  accrued : float;
  max_possible : float;
  total_retries : int;
  max_retries : int;
  retry_tails : Stats.P2.tails;
  sojourn : Stats.summary;
}

type result = {
  sync_name : string;
  sched_name : string;
  dispatch_name : string;
  cores : int;
  final_time : int;
  released : int;
  completed : int;
  met : int;
  aborted : int;
  in_flight : int;
  accrued : float;
  max_possible : float;
  aur : float;
  cmr : float;
  retries_total : int;
  preemptions : int;
  blocked_events : int;
  migrations : int;
  sched_invocations : int;
  sched_overhead : int;
  busy : int;
  per_core_busy : int array;
  access_samples : Stats.summary;
  sojourn_samples : float array;
  sojourn_hist : Stats.histogram;
  blocking_hist : Stats.histogram;
  sched_hist : Stats.histogram;
  contention : Contention.t array;
  per_task : task_result array;
  audit : Audit.report;
  trace : Trace.t;
  static : Rtlf_core.Static_mode.stats option;
      (* summed over scheduler instances; [None] in dynamic mode *)
}

type state = {
  cfg : config;
  queue : int Event_queue.t;
      (* expiries only, keyed by absolute critical time (payload: jid);
         arrivals come from [cursors] *)
  tasks : Task.t array; (* [cfg.tasks], in list order *)
  cursors : Uam.cursor array; (* per task, parallel to [tasks] *)
  profiles : Segment.t array array;
      (* by task id: each task's segment profile, built once per run
         and shared by its jobs *)
  mutable next_arrival : int;
      (* earliest pending arrival over [cursors] ([max_int] when none) *)
  mutable next_source : int;
      (* its task position: the lowest one on a tie, so simultaneous
         arrivals follow task-list order, then draw order *)
  objects : Resource.t;
  locks : Lock_manager.t;
      (* lock-based blocking and the spin-lock grant table share the
         FIFO request/release discipline *)
  schedulers : Scheduler.t array;
      (* one instance under global dispatch; one per core under
         partitioned (deciders carry caches, so instances must not be
         shared between cores) *)
  statics : Rtlf_core.Static_mode.t array;
      (* parallel to [schedulers] in static mode (each scheduler is the
         wrapper of the corresponding instance); empty in dynamic *)
  remaining : Job.t -> int; (* per run: see [remaining_of] *)
  trace : Trace.t;
  mutable now : int;
  cores : Cores.t;
  mutable next_jid : int;
  live : Live_view.t;
  (* Per-task-id results of resolved jobs, kept as they resolve. *)
  released : int array;
  completed : int array;
  met : int array;
  aborted : int array;
  total_retries : int array;
  max_retries : int array;
  max_possible : float array;
  mutable preemptions : int;
  completions : Float_buffer.t;
      (* (task id, sojourn ns, accrued) per completed job, three slots
         each, in resolution order: what [summarise] folds into its
         order-sensitive float results (ids and ns are exact floats) *)
  mutable sched_invocations : int;
  mutable sched_overhead : int;
  mutable busy : int;
  mutable blocked_events : int;
  access_samples : Stats.t;
  contention : Contention.t array;
  last_writer : int array;
      (* per object: jid of the most recent committed write (-1 when
         none yet) — the invalidator blamed for validation-failure
         retries in the causal-attribution trace payloads *)
  blocking_spans : Float_buffer.t;
  sched_costs : Float_buffer.t;
  audit : Audit.t;
  retry_tails : Stats.P2.tracker array; (* indexed by task id *)
  occ : Job.t array; (* per core: [run_slice] scratch *)
  steps : int array; (* per core: [run_slice] scratch *)
  (* The dispatcher pass's plan, sized once per run: per core, whether
     the pass leaves it untouched (spin-pinned) and the job it assigns
     ([Job.dummy] leaves the core idle); the global pass's selection
     and its count; and the pass's charges. *)
  keep : bool array;
  assign : Job.t array;
  selected : Job.t array;
  mutable n_selected : int;
  mutable p_ops : int; (* decision ops, excluding migration ops *)
  mutable p_decisions : int; (* scheduler invocations in this pass *)
  mutable p_aborts : Job.t list;
  mutable p_migrations : int;
}

let scheduler_name cfg =
  (* Mirrors [make_scheduler] without building the lock table. *)
  match cfg.sched with
  | Edf -> "edf"
  | Edf_pip -> "edf-pip"
  | Rua -> (
    match cfg.sync with
    | Sync.Lock_based _ -> "rua-lock-based"
    | Sync.Lock_free _ | Sync.Spin _ | Sync.Ideal -> "rua-lock-free")

let validate cfg =
  if cfg.horizon <= 0 then invalid_arg "Simulator: horizon must be positive";
  if cfg.cores < 1 then invalid_arg "Simulator: need at least one core";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun t ->
      if Hashtbl.mem seen t.Task.id then
        invalid_arg "Simulator: duplicate task id";
      Hashtbl.replace seen t.Task.id ();
      List.iter
        (fun (obj, _) ->
          if obj < 0 || obj >= cfg.n_objects then
            invalid_arg "Simulator: access references unknown object")
        t.Task.accesses)
    cfg.tasks;
  match cfg.mode with
  | Dynamic -> ()
  | Static -> (
    (* Pattern templates are keyed on job state alone and replay
       [Rua_lock_free] decisions, so the wrapped decider must not
       consult hidden state: [Rua_lock_based] and [Edf_pip] both read
       the lock table. *)
    match (cfg.sched, cfg.sync) with
    | Edf, _ -> ()
    | Rua, (Sync.Lock_free _ | Sync.Spin _ | Sync.Ideal) -> ()
    | Rua, Sync.Lock_based _ | Edf_pip, _ ->
      invalid_arg
        (Printf.sprintf
           "Simulator: static mode requires a lock-oblivious decider (edf, \
            or rua under lock-free/spin/ideal sync; got %s)"
           (scheduler_name cfg)))

let make_scheduler cfg locks =
  match cfg.sched with
  | Edf -> Rtlf_core.Edf.make ()
  | Edf_pip -> Rtlf_core.Edf_pip.make ~locks
  | Rua -> (
    match cfg.sync with
    | Sync.Lock_based _ -> Rtlf_core.Rua_lock_based.make ~locks
    | Sync.Lock_free _ | Sync.Spin _ | Sync.Ideal ->
      Rtlf_core.Rua_lock_free.make ())

let seg_cost sync = function
  | Segment.Compute s -> s
  | Segment.Access { work; _ } -> Sync.nominal_access_cost sync ~work
  | Segment.Lock _ | Segment.Unlock _ -> (
    match sync with
    | Sync.Lock_based { overhead } | Sync.Spin { overhead; _ } -> overhead
    | Sync.Lock_free _ | Sync.Ideal -> 0)

(* Each task's profile array, by task id (a gap in the ids gets an
   empty profile). *)
let profile_table (cfg : config) =
  let n = 1 + List.fold_left (fun acc t -> max acc t.Task.id) (-1) cfg.tasks in
  let profiles = Array.make n [||] in
  List.iter
    (fun t -> profiles.(t.Task.id) <- Array.of_list (Task.segments t))
    cfg.tasks;
  profiles

(* Remaining CPU demand of a job including nominal sync overheads —
   what the scheduler uses for PUD and feasibility. [sfx.(id).(k)] is
   the [seg_cost] of task [id]'s segments from [k] on; two trailing
   zeros make a finished job (cursor at the profile's length) read 0.
   The current segment's cost is [sfx.(k) - sfx.(k+1)], so a call is
   O(1) and allocates nothing. *)
let remaining_of sync profiles =
  let suffix profile =
    let n = Array.length profile in
    let s = Array.make (n + 2) 0 in
    for k = n - 1 downto 0 do
      s.(k) <- s.(k + 1) + seg_cost sync profile.(k)
    done;
    s
  in
  let sfx = Array.map suffix profiles in
  fun job ->
    let s = sfx.(job.Job.task.Task.id) and k = job.Job.seg in
    let tail = s.(k + 1) in
    Int.max 0 (s.(k) - tail - job.Job.seg_progress) + tail

let remaining_cost cfg = remaining_of cfg.sync (profile_table cfg)

let tracing st = Trace.enabled st.trace

let is_spin st =
  match st.cfg.sync with Sync.Spin _ -> true | _ -> false

(* A spin-waiting job busy-waits on its own core: it stays in the
   core's running slot (state [Blocked]) and burns CPU until the FIFO
   grant. *)
let spin_waiting st job =
  is_spin st
  && (match job.Job.state with Job.Blocked _ -> true | _ -> false)

(* Spin critical sections are non-preemptable and unmigratable, and a
   spin-waiter owns its core until granted: such occupants pin their
   core against the dispatcher. *)
let spin_pinned st job =
  is_spin st
  && (Lock_manager.holds_any st.locks ~jid:job.Job.jid
     || (match job.Job.state with Job.Blocked _ -> true | _ -> false))

(* --- job lifecycle ------------------------------------------------- *)

(* Every job leaves the live set exactly once, through here — the one
   point where its final retry count is known, so both the Theorem-2
   auditor and the per-task retry-tail estimators feed off it. *)
let resolve st job =
  let i = job.Job.task.Task.id in
  let retries = job.Job.retries in
  Audit.observe st.audit ~task_id:i ~jid:job.Job.jid ~retries ~time:st.now;
  Stats.P2.track st.retry_tails.(i) (float_of_int retries);
  Live_view.remove st.live ~jid:job.Job.jid;
  Cores.retire st.cores job;
  st.released.(i) <- st.released.(i) + 1;
  st.preemptions <- st.preemptions + job.Job.preemptions;
  (* The supremum of the TUF, not U(0): increasing piecewise shapes
     (Fig. 1(c)) peak after arrival, and AUR must stay within [0, 1].
     Every addend of a task's sum is the same, so adding at resolve
     gives the same float as any other order. *)
  st.max_possible.(i) <-
    st.max_possible.(i) +. Rtlf_model.Tuf.max_utility job.Job.task.Task.tuf;
  st.total_retries.(i) <- st.total_retries.(i) + retries;
  if retries > st.max_retries.(i) then st.max_retries.(i) <- retries;
  match job.Job.state with
  | Job.Completed ->
    st.completed.(i) <- st.completed.(i) + 1;
    assert (job.Job.completion >= 0);
    let sojourn = job.Job.completion - job.Job.arrival in
    if sojourn < Task.critical_time job.Job.task then
      st.met.(i) <- st.met.(i) + 1;
    Float_buffer.push_int st.completions i;
    Float_buffer.push_int st.completions sojourn;
    Float_buffer.push st.completions job.Job.accrued
  | Job.Aborted -> st.aborted.(i) <- st.aborted.(i) + 1
  | Job.Ready | Job.Running | Job.Blocked _ -> assert false

let complete_job st job =
  job.Job.state <- Job.Completed;
  job.Job.completion <- st.now;
  job.Job.accrued <- Job.utility_at job ~now:st.now;
  if tracing st then
    Trace.record st.trace ~time:st.now (Trace.Complete job.Job.jid);
  Cores.vacate st.cores ~jid:job.Job.jid;
  resolve st job

(* Close the open blocking span of [job] on [obj] (wake or abort of a
   waiter). *)
let close_block_span st job obj =
  let since = job.Job.block_start in
  if since >= 0 then begin
    let span = st.now - since in
    Contention.note_blocked st.contention.(obj) ~ns:span;
    Float_buffer.push_int st.blocking_spans span;
    job.Job.block_start <- -1
  end

(* Grant chains after a release: the lock manager hands the object to
   the head waiter; wake it. A lock-based waiter rejoins the ready set;
   a spin waiter is already burning on its own core and resumes
   running there. *)
let wake_new_owner st obj = function
  | None -> ()
  | Some jid -> (
    match Live_view.find st.live ~jid with
    | None -> ()
    | Some waiter ->
      waiter.Job.state <-
        (if is_spin st && Cores.core_of st.cores ~jid >= 0 then
           Job.Running
         else Job.Ready);
      close_block_span st waiter obj;
      Contention.note_acquire st.contention.(obj);
      if tracing st then begin
        Trace.record st.trace ~time:st.now (Trace.Wake (waiter.Job.jid, obj));
        Trace.record st.trace ~time:st.now
          (Trace.Acquire (waiter.Job.jid, obj))
      end)

(* A lock request was refused: park the job until the FIFO grant and
   profile the contention. The requester is already enqueued in the
   lock manager, so the waiter count is the current queue depth. A
   lock-based waiter gives up its core; a spin waiter keeps it and
   burns CPU there. *)
let wait_for_lock st job obj =
  job.Job.state <- Job.Blocked obj;
  job.Job.blocked_count <- job.Job.blocked_count + 1;
  st.blocked_events <- st.blocked_events + 1;
  let c = st.contention.(obj) in
  Contention.note_conflict c;
  Contention.note_queue_depth c
    ~depth:(Lock_manager.queue_length st.locks ~obj);
  job.Job.block_start <- st.now;
  if tracing st then
    Trace.record st.trace ~time:st.now (Trace.Block (job.Job.jid, obj));
  if not (is_spin st) then Cores.vacate st.cores ~jid:job.Job.jid

let abort_job st job =
  (match st.cfg.sync with
  | Sync.Lock_based _ | Sync.Spin _ ->
    let released = Lock_manager.release_all st.locks ~jid:job.Job.jid in
    List.iter
      (fun (obj, new_owner) ->
        if tracing st then
          Trace.record st.trace ~time:st.now (Trace.Release (job.Job.jid, obj));
        wake_new_owner st obj new_owner)
      released
  | Sync.Lock_free _ | Sync.Ideal -> ());
  (match job.Job.state with
  | Job.Blocked obj -> close_block_span st job obj
  | _ -> ());
  job.Job.state <- Job.Aborted;
  (* The exception handler runs immediately on the CPU (§3.5); the
     charged duration rides in the trace payload so attribution can
     bill the post-abort interval to this job exactly. *)
  let handler = Int.max 0 job.Job.task.Task.abort_cost in
  if tracing st then
    Trace.record st.trace ~time:st.now (Trace.Abort (job.Job.jid, handler));
  let core = Cores.core_of st.cores ~jid:job.Job.jid in
  Cores.vacate st.cores ~jid:job.Job.jid;
  if handler > 0 then begin
    st.now <- st.now + handler;
    st.busy <- st.busy + handler;
    (* The handler is serialized with the dispatcher; its CPU burn is
       billed to the core the victim occupied (core 0 for a victim
       that was not running). *)
    let cbusy = Cores.busy st.cores in
    let c = Int.max core 0 in
    cbusy.(c) <- cbusy.(c) + handler
  end;
  resolve st job

let preempt st ~by job =
  job.Job.state <- Job.Ready;
  job.Job.preemptions <- job.Job.preemptions + 1;
  if tracing st then
    Trace.record st.trace ~time:st.now (Trace.Preempt (job.Job.jid, by));
  (match st.cfg.sync with
  | Sync.Lock_free _
    when st.cfg.retry_on_any_preemption && job.Job.seg_progress > 0
         && not (Job.profile_done job) -> (
    match job.Job.profile.(job.Job.seg) with
    | Segment.Access { obj; _ } ->
      let lost = job.Job.seg_progress in
      Job.restart_access job;
      Contention.note_retry st.contention.(obj);
      if tracing st then
        Trace.record st.trace ~time:st.now
          (Trace.Retry (job.Job.jid, obj, by, lost))
    | Segment.Compute _ | Segment.Lock _ | Segment.Unlock _ -> ())
  | _ -> ());
  Cores.vacate st.cores ~jid:job.Job.jid

(* Commit a write to [obj]: bump the version (invalidating in-flight
   lock-free attempts) and remember the writer for retry blame. *)
let commit_write st jid obj =
  Resource.bump st.objects obj;
  st.last_writer.(obj) <- jid

let set_running st ~core job =
  job.Job.state <- Job.Running;
  if tracing st then
    Trace.record st.trace ~time:st.now (Trace.Start (job.Job.jid, core));
  job.Job.last_core <- core;
  Cores.place st.cores core job

(* --- dispatcher ----------------------------------------------------- *)

let target_ok st j = Job.is_runnable j && Live_view.mem st.live ~jid:j.Job.jid

(* One dispatcher pass fills [st]'s plan fields before any cost is
   charged, so the migration count can ride in the scheduling cost like
   scheduler ops. *)

let migrates_to job core = job.Job.last_core >= 0 && job.Job.last_core <> core

(* Is [job] running on a core the plan keeps? *)
let pinned st job =
  let c = Cores.core_of st.cores ~jid:job.Job.jid in
  c >= 0 && st.keep.(c)

(* Mark the spin-pinned cores; returns how many cores are not kept. *)
let mark_kept st =
  let frees = ref 0 in
  for c = 0 to Cores.count st.cores - 1 do
    let j = Cores.occupant st.cores c in
    st.keep.(c) <- j != Job.dummy && spin_pinned st j;
    if not st.keep.(c) then incr frees
  done;
  !frees

let free st c = (not st.keep.(c)) && st.assign.(c) == Job.dummy

let rec lowest_free st c =
  if c >= Cores.count st.cores then -1
  else if free st c then c
  else lowest_free st (c + 1)

(* The core [job] runs on if the plan does not keep it, else [-1]. *)
let unkept_core st job =
  let c = Cores.core_of st.cores ~jid:job.Job.jid in
  if c >= 0 && not st.keep.(c) then c else -1

(* Spread the selection across the non-pinned cores: jobs already
   running keep their core; newcomers prefer their previous core, then
   the lowest-numbered free one. *)
let assign_global st =
  let m = Cores.count st.cores in
  Array.fill st.assign 0 m Job.dummy;
  (* A job is placed by the first pass iff it runs on an unkept core. *)
  for i = 0 to st.n_selected - 1 do
    let j = st.selected.(i) in
    let c = unkept_core st j in
    if c >= 0 then st.assign.(c) <- j
  done;
  let migrations = ref 0 in
  for i = 0 to st.n_selected - 1 do
    let j = st.selected.(i) in
    if unkept_core st j < 0 then begin
      let last = j.Job.last_core in
      let c =
        if last >= 0 && last < m && free st last then last
        else lowest_free st 0
      in
      (* A negative [c]: more selected than free cores, drop the tail. *)
      if c >= 0 then begin
        st.assign.(c) <- j;
        if migrates_to j c then incr migrations
      end
    end
  done;
  st.p_migrations <- !migrations

(* Append to the selection, up to [frees] jobs, the first [m - 1 - taken]
   runnable, unpinned jobs of [schedule] other than [primary]. *)
let rec select_rest st ~frees ~primary taken = function
  | j :: tl when taken < Cores.count st.cores - 1 ->
    if target_ok st j && (not (pinned st j)) && j.Job.jid <> primary.Job.jid
    then begin
      if st.n_selected < frees then begin
        st.selected.(st.n_selected) <- j;
        st.n_selected <- st.n_selected + 1
      end;
      select_rest st ~frees ~primary (taken + 1) tl
    end
    else select_rest st ~frees ~primary taken tl
  | _ -> ()

let plan_global st =
  let jobs = Live_view.view st.live in
  let d =
    st.schedulers.(0).Scheduler.decide ~now:st.now ~jobs
      ~remaining:st.remaining
  in
  let frees = mark_kept st in
  (* Core 0's slot follows the decision's dispatch exactly — the
     single-CPU semantics; extra cores take the next runnable jobs in
     schedule order (capped at m-1, so at m=1 this engine reduces to
     the pre-SMP single-CPU path step for step). *)
  let primary =
    match d.Scheduler.dispatch with
    | Some j when target_ok st j && not (pinned st j) -> j
    | Some _ | None -> Job.dummy
  in
  st.n_selected <- 0;
  if primary != Job.dummy && frees > 0 then begin
    st.selected.(0) <- primary;
    st.n_selected <- 1
  end;
  select_rest st ~frees ~primary 0 d.Scheduler.schedule;
  assign_global st;
  st.p_ops <- d.Scheduler.ops;
  st.p_decisions <- 1;
  st.p_aborts <- d.Scheduler.aborts

let plan_partitioned st =
  let m = Cores.count st.cores in
  let queues = Cores.queues st.cores in
  ignore (mark_kept st : int);
  st.p_ops <- 0;
  st.p_aborts <- [];
  for c = 0 to m - 1 do
    let jobs = Live_view.view queues.(c) in
    let d =
      st.schedulers.(c).Scheduler.decide ~now:st.now ~jobs
        ~remaining:st.remaining
    in
    st.p_ops <- st.p_ops + d.Scheduler.ops;
    if d.Scheduler.aborts <> [] then
      st.p_aborts <- st.p_aborts @ d.Scheduler.aborts;
    st.assign.(c) <-
      (match d.Scheduler.dispatch with
      | Some j when (not st.keep.(c)) && target_ok st j -> j
      | Some _ | None -> Job.dummy)
  done;
  st.p_decisions <- m;
  st.p_migrations <- 0

let dispatch_onto st c j =
  if migrates_to j c then begin
    if tracing st then
      Trace.record st.trace ~time:st.now
        (Trace.Migrate (j.Job.jid, j.Job.last_core, c));
    Cores.note_migration st.cores
  end;
  set_running st ~core:c j

let apply_plan st =
  for c = 0 to Cores.count st.cores - 1 do
    if not st.keep.(c) then begin
      (* Re-check liveness: a deadlock victim aborted between planning
         and application leaves its slot idle. *)
      let j = st.assign.(c) in
      let target = if j != Job.dummy && target_ok st j then j else Job.dummy in
      let cur = Cores.occupant st.cores c in
      if cur == Job.dummy then begin
        if target != Job.dummy then dispatch_onto st c target
      end
      else if target == Job.dummy then preempt st ~by:(-1) cur
      else if cur.Job.jid <> target.Job.jid then begin
        preempt st ~by:target.Job.jid cur;
        dispatch_onto st c target
      end
    end
  done

(* Migration cost is charged through the ops accounting like scheduler
   ops: each migration the dispatcher commits to adds this many ops to
   its invocation. *)
let ops_per_migration = 8

let rec abort_victims st = function
  | [] -> ()
  | victim :: tl ->
    if Job.is_live victim then abort_job st victim;
    abort_victims st tl

let invoke_dispatcher st =
  (match st.cfg.dispatch with
  | Cores.Global -> plan_global st
  | Cores.Partitioned -> plan_partitioned st);
  st.sched_invocations <- st.sched_invocations + 1;
  let ops = st.p_ops + (ops_per_migration * st.p_migrations) in
  let cost =
    (st.cfg.sched_base * st.p_decisions) + (st.cfg.sched_per_op * ops)
  in
  if tracing st then
    Trace.record st.trace ~time:st.now (Trace.Sched (ops, cost));
  Float_buffer.push_int st.sched_costs cost;
  st.now <- st.now + cost;
  st.sched_overhead <- st.sched_overhead + cost;
  (* Deadlock victims (only possible with nested sections). *)
  abort_victims st st.p_aborts;
  st.p_aborts <- [];
  apply_plan st

(* --- event handling ------------------------------------------------- *)

(* Re-derive the earliest pending arrival after a cursor moved. *)
let refresh_next_arrival st =
  let best = ref max_int and src = ref (-1) in
  for k = 0 to Array.length st.cursors - 1 do
    let t = Uam.peek st.cursors.(k) in
    if t < !best then begin
      best := t;
      src := k
    end
  done;
  st.next_arrival <- !best;
  st.next_source <- !src

(* Release the pending arrival of the task at position [k]. *)
let arrive st k =
  let task = st.tasks.(k) in
  let time = st.next_arrival in
  let jid = st.next_jid in
  st.next_jid <- st.next_jid + 1;
  let job =
    Job.of_profile ~task ~profile:st.profiles.(task.Task.id) ~jid
      ~arrival:time
  in
  Live_view.add st.live job;
  Cores.admit st.cores job;
  Event_queue.add st.queue ~time:(Job.absolute_critical_time job) jid;
  if tracing st then
    Trace.record st.trace ~time:st.now
      (Trace.Arrive (jid, task.Task.id, time));
  Uam.advance st.cursors.(k);
  refresh_next_arrival st

let queue_time st = Event_queue.min_time st.queue

(* Handle every event due at or before [st.now] (and within the
   horizon), arrivals before expiries at equal times. Returns the
   number handled, counting from [n]. *)
let rec process_due_events st n =
  let expiry = queue_time st in
  let t = Int.min st.next_arrival expiry in
  if t <= st.now && t < st.cfg.horizon then begin
    if st.next_arrival <= expiry then arrive st st.next_source
    else begin
      let jid = Event_queue.pop_payload st.queue in
      match Live_view.find st.live ~jid with
      | None -> () (* already resolved *)
      | Some job -> abort_job st job
    end;
    process_due_events st (n + 1)
  end
  else n

(* --- running-job execution ------------------------------------------ *)

(* Set up per-attempt bookkeeping before executing a slice. *)
let prepare_attempt st job =
  if not (Job.profile_done job) then
    match job.Job.profile.(job.Job.seg) with
    | Segment.Access { obj; _ } -> (
      if job.Job.access_enter < 0 then job.Job.access_enter <- st.now;
      match st.cfg.sync with
      | Sync.Lock_free _ ->
        if job.Job.seg_progress = 0 && job.Job.attempt_snapshot < 0 then
          job.Job.attempt_snapshot <- Resource.version st.objects obj
      | Sync.Lock_based _ | Sync.Spin _ | Sync.Ideal -> ())
    | Segment.Lock _ | Segment.Unlock _ | Segment.Compute _ -> ()

(* Nanoseconds until the running job's next boundary action. *)
let next_step st job =
  if Job.profile_done job then 0
  else
    match job.Job.profile.(job.Job.seg) with
    | Segment.Compute s -> Int.max 0 (s - job.Job.seg_progress)
    | Segment.Access { work; _ } -> (
      match st.cfg.sync with
      | Sync.Ideal -> 0
      | Sync.Lock_free { overhead } ->
        Int.max 0 (overhead + work - job.Job.seg_progress)
      | Sync.Lock_based { overhead } | Sync.Spin { overhead; _ } ->
        if not job.Job.lock_pending then
          Int.max 0 (overhead - job.Job.seg_progress)
        else Int.max 0 ((2 * overhead) + work - job.Job.seg_progress))
    | Segment.Lock _ | Segment.Unlock _ -> (
      match st.cfg.sync with
      | Sync.Lock_based { overhead } | Sync.Spin { overhead; _ } ->
        Int.max 0 (overhead - job.Job.seg_progress)
      | Sync.Lock_free _ | Sync.Ideal -> 0)

(* Close a finished access: sample its duration and mark it in the
   trace. *)
let access_done st job obj =
  let enter = job.Job.access_enter in
  Stats.add st.access_samples
    (if enter >= 0 then float_of_int (st.now - enter) else 0.0);
  if tracing st then
    Trace.record st.trace ~time:st.now (Trace.Access_done (job.Job.jid, obj))

(* Lock-based and spin sharing run one request/grant/release protocol
   through the lock manager. They differ only in what a refused
   requester does ([wait_for_lock]) and in whether an acquire is a
   scheduling event: spin acquires deliberately are not — the cost
   advantage of the spin discipline over lock-based sharing. *)
let acquire_event st = if is_spin st then `Continue else `Sched_event

(* Request [obj]. Granted on the spot, the job holds it and the result
   is [true]; refused, the job waits for the FIFO grant. *)
let acquire st job obj =
  job.Job.lock_pending <- true;
  match Lock_manager.request st.locks ~jid:job.Job.jid ~obj with
  | Lock_manager.Granted ->
    Contention.note_acquire st.contention.(obj);
    if tracing st then
      Trace.record st.trace ~time:st.now (Trace.Acquire (job.Job.jid, obj));
    true
  | Lock_manager.Blocked_on _ ->
    wait_for_lock st job obj;
    false

(* End a critical section on [obj]: hand the object to the head waiter,
   commit the section's write and count the access. *)
let release st job obj ~write =
  let new_owner = Lock_manager.release st.locks ~jid:job.Job.jid ~obj in
  if tracing st then
    Trace.record st.trace ~time:st.now (Trace.Release (job.Job.jid, obj));
  wake_new_owner st obj new_owner;
  if write then commit_write st job.Job.jid obj;
  Resource.record_access st.objects obj

(* Complete the head segment; returns [`Sched_event] when the boundary
   is a scheduling event (job departure, a lock-based lock request, or
   any release — a spin release ends a non-preemptable section). *)
let finish_or st job k =
  Job.finish_segment job;
  if Job.profile_done job then begin
    complete_job st job;
    `Sched_event
  end
  else k

let boundary st job =
  if Job.profile_done job then begin
    complete_job st job;
    `Sched_event
  end
  else
    match job.Job.profile.(job.Job.seg) with
    | Segment.Compute _ -> finish_or st job `Continue
    | Segment.Lock obj -> (
      match st.cfg.sync with
      | Sync.Lock_free _ | Sync.Ideal ->
        (* The lock-free model excludes nested sections (§3.3): lock
           markers are skipped at zero cost. *)
        finish_or st job `Continue
      | Sync.Lock_based _ | Sync.Spin _ ->
        if job.Job.lock_pending then begin
          (* Woken after waiting: the lock manager already granted the
             object on release (see [wake_new_owner]). *)
          assert (Lock_manager.owner st.locks ~obj = Some job.Job.jid);
          Job.finish_segment job;
          `Continue
        end
        else if acquire st job obj then finish_or st job (acquire_event st)
        else acquire_event st)
    | Segment.Unlock obj -> (
      match st.cfg.sync with
      | Sync.Lock_free _ | Sync.Ideal -> finish_or st job `Continue
      | Sync.Lock_based _ | Sync.Spin _ ->
        release st job obj ~write:true;
        finish_or st job `Sched_event)
    | Segment.Access { obj; work = _; write } -> (
      let snap = job.Job.attempt_snapshot in
      match st.cfg.sync with
      | Sync.Lock_free _
        when snap >= 0 && snap <> Resource.version st.objects obj ->
        (* Attempt finished but invalidated by a peer's commit: retry. *)
        let lost = job.Job.seg_progress in
        Job.restart_access job;
        Contention.note_retry st.contention.(obj);
        if tracing st then
          Trace.record st.trace ~time:st.now
            (Trace.Retry (job.Job.jid, obj, st.last_writer.(obj), lost));
        `Continue
      | Sync.Lock_free _ | Sync.Ideal ->
        (* Only writers invalidate peers' in-flight attempts. *)
        if write then commit_write st job.Job.jid obj;
        Resource.record_access st.objects obj;
        Contention.note_acquire st.contention.(obj);
        access_done st job obj;
        finish_or st job `Continue
      | Sync.Lock_based _ | Sync.Spin _ ->
        if not job.Job.lock_pending then begin
          ignore (acquire st job obj : bool);
          acquire_event st
        end
        else begin
          release st job obj ~write;
          access_done st job obj;
          finish_or st job `Sched_event
        end)

(* Charge [delta] ns to every core [run_slice] found occupied; only
   occupants with a step (not spin-waiting) make segment progress. *)
let burn st delta =
  if delta > 0 then begin
    let cbusy = Cores.busy st.cores in
    for c = 0 to Cores.count st.cores - 1 do
      let job = st.occ.(c) in
      if job != Job.dummy then begin
        if st.steps.(c) >= 0 then
          job.Job.seg_progress <- job.Job.seg_progress + delta;
        cbusy.(c) <- cbusy.(c) + delta;
        st.busy <- st.busy + delta
      end
    done
  end

(* Advance every occupied core to the earliest per-core boundary (or
   the next event, whichever comes first). Spin-waiters burn CPU
   without making segment progress; their only exit is a grant from a
   holder's release boundary or an expiry abort. *)
let run_slice st =
  let m = Cores.count st.cores in
  let occ = st.occ and steps = st.steps in
  let dmin = ref max_int in
  for c = 0 to m - 1 do
    let job = Cores.occupant st.cores c in
    occ.(c) <- job;
    steps.(c) <- -1;
    if job != Job.dummy && not (spin_waiting st job) then begin
      prepare_attempt st job;
      let s = next_step st job in
      steps.(c) <- s;
      if s < !dmin then dmin := s
    end
  done;
  let next_ev =
    Int.min (Int.min st.next_arrival (queue_time st)) st.cfg.horizon
  in
  if !dmin = max_int then begin
    (* Every occupied core is spinning: burn until the next event. *)
    burn st (next_ev - st.now);
    st.now <- Int.max st.now next_ev
  end
  else begin
    let finish = st.now + !dmin in
    if finish <= next_ev then begin
      burn st !dmin;
      st.now <- finish;
      let sched_event = ref false in
      for c = 0 to m - 1 do
        let job = occ.(c) in
        if
          steps.(c) = !dmin && job != Job.dummy && Job.is_live job
          && Cores.occupant st.cores c == job
        then
          match boundary st job with
          | `Sched_event -> sched_event := true
          | `Continue -> ()
      done;
      if !sched_event then invoke_dispatcher st
    end
    else begin
      burn st (next_ev - st.now);
      st.now <- next_ev
    end
  end

(* --- main loop ------------------------------------------------------ *)

let rec main_loop st =
  if st.now < st.cfg.horizon then begin
    if process_due_events st 0 > 0 then begin
      invoke_dispatcher st;
      main_loop st
    end
    else if Cores.any_running st.cores then begin
      run_slice st;
      main_loop st
    end
    else begin
      (* Nothing running: jump to the next event, or stop when none is
         left before the horizon. *)
      let t = Int.min st.next_arrival (queue_time st) in
      if t < st.cfg.horizon then begin
        st.now <- Int.max st.now t;
        main_loop st
      end
    end
  end

(* --- result assembly ------------------------------------------------ *)

let summarise st =
  let cfg = st.cfg in
  let n_tasks = Array.length st.released in
  let accrued = Array.make n_tasks 0.0 in
  let sojourns = Array.init n_tasks (fun _ -> Stats.create ()) in
  (* Fold the log newest-first. Float addition is not associative, so
     this order is part of the results: the per-task accrued sums, the
     Welford updates and [sojourn_samples] are built in it. *)
  let log = st.completions in
  let n = Float_buffer.length log / 3 in
  let sojourn_samples = Array.make n 0.0 in
  for k = n - 1 downto 0 do
    let i = int_of_float (Float_buffer.get log (3 * k)) in
    let s = Float_buffer.get log ((3 * k) + 1) in
    accrued.(i) <- accrued.(i) +. Float_buffer.get log ((3 * k) + 2);
    Stats.add sojourns.(i) s;
    sojourn_samples.(n - 1 - k) <- s
  done;
  let per_task =
    Array.init n_tasks (fun i ->
        {
          task_id = i;
          released = st.released.(i);
          completed = st.completed.(i);
          met = st.met.(i);
          aborted = st.aborted.(i);
          accrued = accrued.(i);
          max_possible = st.max_possible.(i);
          total_retries = st.total_retries.(i);
          max_retries = st.max_retries.(i);
          retry_tails = Stats.P2.tails st.retry_tails.(i);
          sojourn = Stats.summary sojourns.(i);
        })
  in
  let sum f = Array.fold_left (fun acc tr -> acc + f tr) 0 per_task in
  let sumf f = Array.fold_left (fun acc tr -> acc +. f tr) 0.0 per_task in
  let released_all = sum (fun tr -> tr.released) in
  let completed_all = sum (fun tr -> tr.completed) in
  let met_all = sum (fun tr -> tr.met) in
  let accrued_all = sumf (fun tr -> tr.accrued) in
  let possible_all = sumf (fun tr -> tr.max_possible) in
  {
    sync_name = Sync.name cfg.sync;
    sched_name = st.schedulers.(0).Scheduler.name;
    dispatch_name = Cores.policy_name cfg.dispatch;
    cores = cfg.cores;
    final_time = st.now;
    released = released_all;
    completed = completed_all;
    met = met_all;
    aborted = sum (fun tr -> tr.aborted);
    in_flight = Live_view.count st.live;
    accrued = accrued_all;
    max_possible = possible_all;
    aur = (if possible_all > 0.0 then accrued_all /. possible_all else 0.0);
    cmr =
      (if released_all > 0 then
         float_of_int met_all /. float_of_int released_all
       else 0.0);
    retries_total = sum (fun tr -> tr.total_retries);
    preemptions = st.preemptions;
    blocked_events = st.blocked_events;
    migrations = Cores.migrations st.cores;
    sched_invocations = st.sched_invocations;
    sched_overhead = st.sched_overhead;
    busy = st.busy;
    per_core_busy = Array.copy (Cores.busy st.cores);
    access_samples = Stats.summary st.access_samples;
    sojourn_samples;
    sojourn_hist = Stats.histogram sojourn_samples;
    blocking_hist = Stats.histogram (Float_buffer.to_array st.blocking_spans);
    sched_hist = Stats.histogram (Float_buffer.to_array st.sched_costs);
    contention = st.contention;
    per_task;
    audit = Audit.report st.audit;
    trace = st.trace;
    static =
      (if Array.length st.statics = 0 then None
       else
         Some
           (Array.fold_left
              (fun acc s ->
                Rtlf_core.Static_mode.add_stats acc
                  (Rtlf_core.Static_mode.stats s))
              Rtlf_core.Static_mode.zero_stats st.statics));
  }

let run cfg =
  validate cfg;
  let objects = Resource.create ~n:cfg.n_objects in
  let locks = Lock_manager.create ~objects in
  (* Theorem 2 is proved for RUA scheduling of lock-free sharing on one
     processor; the auditor stays disarmed elsewhere (lock-based and
     spin jobs never retry, EDF is not a UA scheduler, and on m > 1
     cores writers on the other cores can invalidate an attempt the
     uniprocessor bound does not count). *)
  let audit_enabled =
    cfg.cores = 1
    &&
    match (cfg.sync, cfg.sched) with
    | Sync.Lock_free _, Rua -> true
    | _ -> false
  in
  let profiles = profile_table cfg in
  let remaining = remaining_of cfg.sync profiles in
  let n_tasks = Array.length profiles in
  let n_schedulers =
    match cfg.dispatch with
    | Cores.Global -> 1
    | Cores.Partitioned -> cfg.cores
  in
  let statics =
    match cfg.mode with
    | Dynamic -> [||]
    | Static ->
      (* One shared plan: profiles and learned pattern templates are
         reused across instances (all mutation happens inside decide
         calls, which the virtual clock serializes). *)
      let plan =
        Rtlf_core.Static_mode.plan ~tasks:cfg.tasks ~remaining
      in
      let algo =
        match cfg.sched with
        | Edf -> Rtlf_core.Static_mode.Edf
        | Edf_pip | Rua -> Rtlf_core.Static_mode.Rua_lf
      in
      Array.init n_schedulers (fun _ ->
          Rtlf_core.Static_mode.create ~plan
            ~fallback:(make_scheduler cfg locks) ~algo)
  in
  let tasks = Array.of_list cfg.tasks in
  let root = Prng.create ~seed:cfg.seed in
  (* [Array.init] applies its function in index order: the k-th task
     in list order draws from the k-th split of the root stream. *)
  let cursors =
    Array.init (Array.length tasks) (fun k ->
        Uam.cursor tasks.(k).Task.arrival (Prng.split root) ~start:0
          ~horizon:cfg.horizon)
  in
  let per_task x = Array.make n_tasks x in
  let st =
    {
      cfg;
      queue = Event_queue.create ();
      tasks;
      cursors;
      profiles;
      next_arrival = max_int;
      next_source = -1;
      objects;
      locks;
      schedulers =
        (if Array.length statics = 0 then
           Array.init n_schedulers (fun _ -> make_scheduler cfg locks)
         else Array.map Rtlf_core.Static_mode.scheduler statics);
      statics;
      remaining;
      trace = Trace.create ?capacity:cfg.trace_capacity ~enabled:cfg.trace ();
      now = 0;
      cores = Cores.create ~m:cfg.cores ~policy:cfg.dispatch;
      next_jid = 0;
      live = Live_view.create ();
      released = per_task 0;
      completed = per_task 0;
      met = per_task 0;
      aborted = per_task 0;
      total_retries = per_task 0;
      max_retries = per_task 0;
      max_possible = per_task 0.0;
      preemptions = 0;
      completions = Float_buffer.create ();
      sched_invocations = 0;
      sched_overhead = 0;
      busy = 0;
      blocked_events = 0;
      access_samples = Stats.create ();
      contention = Contention.make_array ~n:cfg.n_objects;
      last_writer = Array.make (max 1 cfg.n_objects) (-1);
      blocking_spans = Float_buffer.create ();
      sched_costs = Float_buffer.create ();
      audit = Audit.create ~tasks:cfg.tasks ~enabled:audit_enabled;
      retry_tails = Array.init n_tasks (fun _ -> Stats.P2.tracker ());
      occ = Array.make cfg.cores Job.dummy;
      steps = Array.make cfg.cores (-1);
      keep = Array.make cfg.cores false;
      assign = Array.make cfg.cores Job.dummy;
      selected = Array.make cfg.cores Job.dummy;
      n_selected = 0;
      p_ops = 0;
      p_decisions = 0;
      p_aborts = [];
      p_migrations = 0;
    }
  in
  refresh_next_arrival st;
  main_loop st;
  summarise st
