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

type event = Arrival of Task.t | Expiry of int

type state = {
  cfg : config;
  queue : event Event_queue.t;
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
  remaining : Job.t -> int; (* hoisted: depends only on [cfg.sync] *)
  trace : Trace.t;
  mutable now : int;
  cores : Cores.t;
  mutable next_jid : int;
  live : Live_view.t;
  mutable resolved : Job.t list;
  mutable sched_invocations : int;
  mutable sched_overhead : int;
  mutable busy : int;
  mutable blocked_events : int;
  access_samples : Stats.t;
  contention : Contention.t array;
  block_since : (int, int * int) Hashtbl.t;
      (* jid -> (obj, block start ns) for open blocking spans *)
  last_writer : int array;
      (* per object: jid of the most recent committed write (-1 when
         none yet) — the invalidator blamed for validation-failure
         retries in the causal-attribution trace payloads *)
  blocking_spans : Float_buffer.t;
  sched_costs : Float_buffer.t;
  audit : Audit.t;
  retry_tails : Stats.P2.tracker array; (* indexed by task id *)
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

(* Remaining CPU demand of a job including nominal sync overheads —
   what the scheduler uses for PUD and feasibility. Depends only on
   the sync model, so the per-state closure is built once in [run]. *)
let remaining_cost sync job =
  let seg_cost = function
    | Segment.Compute s -> s
    | Segment.Access { work; _ } -> Sync.nominal_access_cost sync ~work
    | Segment.Lock _ | Segment.Unlock _ -> (
      match sync with
      | Sync.Lock_based { overhead } | Sync.Spin { overhead; _ } -> overhead
      | Sync.Lock_free _ | Sync.Ideal -> 0)
  in
  match job.Job.segments with
  | [] -> 0
  | head :: tail ->
    let head_left = max 0 (seg_cost head - job.Job.seg_progress) in
    List.fold_left (fun acc s -> acc + seg_cost s) head_left tail

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
  && (job.Job.holding <> []
     || (match job.Job.state with Job.Blocked _ -> true | _ -> false))

(* --- job lifecycle ------------------------------------------------- *)

(* Every job leaves the live set exactly once, through here — the one
   point where its final retry count is known, so both the Theorem-2
   auditor and the per-task retry-tail estimators feed off it. *)
let resolve st job =
  let task_id = job.Job.task.Task.id in
  Audit.observe st.audit ~task_id ~jid:job.Job.jid ~retries:job.Job.retries
    ~time:st.now;
  Stats.P2.track st.retry_tails.(task_id) (float_of_int job.Job.retries);
  Live_view.remove st.live ~jid:job.Job.jid;
  Cores.retire st.cores job;
  st.resolved <- job :: st.resolved

let complete_job st job =
  job.Job.state <- Job.Completed;
  job.Job.completion <- Some st.now;
  job.Job.accrued <- Job.utility_at job ~now:st.now;
  Trace.record st.trace ~time:st.now (Trace.Complete job.Job.jid);
  Cores.vacate st.cores ~jid:job.Job.jid;
  resolve st job

(* Close the open blocking span of [jid] (wake or abort of a waiter). *)
let close_block_span st jid =
  match Hashtbl.find_opt st.block_since jid with
  | None -> ()
  | Some (obj, since) ->
    let span = st.now - since in
    Contention.note_blocked st.contention.(obj) ~ns:span;
    Float_buffer.push_int st.blocking_spans span;
    Hashtbl.remove st.block_since jid

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
        (if is_spin st && Cores.core_of st.cores ~jid <> None then
           Job.Running
         else Job.Ready);
      waiter.Job.holding <- obj :: waiter.Job.holding;
      close_block_span st waiter.Job.jid;
      Contention.note_acquire st.contention.(obj);
      Trace.record st.trace ~time:st.now (Trace.Wake (waiter.Job.jid, obj));
      Trace.record st.trace ~time:st.now
        (Trace.Acquire (waiter.Job.jid, obj)))

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
    ~depth:(List.length (Lock_manager.waiters st.locks ~obj));
  Hashtbl.replace st.block_since job.Job.jid (obj, st.now);
  Trace.record st.trace ~time:st.now (Trace.Block (job.Job.jid, obj));
  if not (is_spin st) then Cores.vacate st.cores ~jid:job.Job.jid

let abort_job st job =
  (match st.cfg.sync with
  | Sync.Lock_based _ | Sync.Spin _ ->
    let released = Lock_manager.release_all st.locks ~jid:job.Job.jid in
    List.iter
      (fun (obj, new_owner) ->
        Trace.record st.trace ~time:st.now (Trace.Release (job.Job.jid, obj));
        wake_new_owner st obj new_owner)
      released;
    job.Job.holding <- []
  | Sync.Lock_free _ | Sync.Ideal -> ());
  close_block_span st job.Job.jid;
  job.Job.state <- Job.Aborted;
  (* The exception handler runs immediately on the CPU (§3.5); the
     charged duration rides in the trace payload so attribution can
     bill the post-abort interval to this job exactly. *)
  let handler = max 0 job.Job.task.Task.abort_cost in
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
    let c = match core with Some c -> c | None -> 0 in
    cbusy.(c) <- cbusy.(c) + handler
  end;
  resolve st job

let preempt st ~by job =
  job.Job.state <- Job.Ready;
  job.Job.preemptions <- job.Job.preemptions + 1;
  Trace.record st.trace ~time:st.now (Trace.Preempt (job.Job.jid, by));
  (match (st.cfg.sync, job.Job.segments) with
  | Sync.Lock_free _, Segment.Access { obj; _ } :: _
    when st.cfg.retry_on_any_preemption && job.Job.seg_progress > 0 ->
    let lost = job.Job.seg_progress in
    Job.restart_access job;
    Contention.note_retry st.contention.(obj);
    Trace.record st.trace ~time:st.now
      (Trace.Retry (job.Job.jid, obj, by, lost))
  | _ -> ());
  Cores.vacate st.cores ~jid:job.Job.jid

(* Commit a write to [obj]: bump the version (invalidating in-flight
   lock-free attempts) and remember the writer for retry blame. *)
let commit_write st jid obj =
  Resource.bump st.objects obj;
  st.last_writer.(obj) <- jid

let set_running st ~core job =
  job.Job.state <- Job.Running;
  Trace.record st.trace ~time:st.now (Trace.Start (job.Job.jid, core));
  job.Job.last_core <- core;
  Cores.place st.cores core job

(* --- dispatcher ----------------------------------------------------- *)

let target_ok st j = Job.is_runnable j && Live_view.mem st.live ~jid:j.Job.jid

(* One dispatcher pass, computed before any cost is charged so the
   migration count can ride in the scheduling cost like scheduler ops. *)
type plan = {
  p_ops : int; (* decision ops, excluding migration ops *)
  p_decisions : int; (* scheduler invocations folded into this pass *)
  p_aborts : Job.t list;
  p_assign : Job.t option array; (* per core; [None] leaves it idle *)
  p_keep : bool array; (* spin-pinned cores: leave untouched *)
  p_migrations : int;
}

let migrates_to job core = job.Job.last_core >= 0 && job.Job.last_core <> core

(* Spread [selected] across the non-pinned cores: jobs already running
   keep their core; newcomers prefer their previous core, then the
   lowest-numbered free one. *)
let assign_global st ~keep selected =
  let m = Cores.count st.cores in
  let assign = Array.make m None in
  let placed = Hashtbl.create 8 in
  List.iter
    (fun (j : Job.t) ->
      match Cores.core_of st.cores ~jid:j.Job.jid with
      | Some c when not keep.(c) ->
        assign.(c) <- Some j;
        Hashtbl.replace placed j.Job.jid ()
      | Some _ | None -> ())
    selected;
  let free c = (not keep.(c)) && assign.(c) = None in
  let lowest_free () =
    let rec go c = if c >= m then None else if free c then Some c else go (c + 1) in
    go 0
  in
  let migrations = ref 0 in
  List.iter
    (fun (j : Job.t) ->
      if not (Hashtbl.mem placed j.Job.jid) then begin
        let c =
          if j.Job.last_core >= 0 && j.Job.last_core < m && free j.Job.last_core
          then Some j.Job.last_core
          else lowest_free ()
        in
        match c with
        | None -> () (* more selected than free cores: drop the tail *)
        | Some c ->
          assign.(c) <- Some j;
          if migrates_to j c then incr migrations
      end)
    selected;
  (assign, !migrations)

let plan_global st =
  let m = Cores.count st.cores in
  let jobs = Live_view.view st.live in
  let d =
    st.schedulers.(0).Scheduler.decide ~now:st.now ~jobs
      ~remaining:st.remaining
  in
  let keep = Array.make m false in
  for c = 0 to m - 1 do
    match Cores.occupant st.cores c with
    | Some j when spin_pinned st j -> keep.(c) <- true
    | _ -> ()
  done;
  let pinned_jid jid =
    match Cores.core_of st.cores ~jid with
    | Some c -> keep.(c)
    | None -> false
  in
  (* Core 0's slot follows the decision's dispatch exactly — the
     single-CPU semantics; extra cores take the next runnable jobs in
     schedule order (capped at m-1, so at m=1 this engine reduces to
     the pre-SMP single-CPU path step for step). *)
  let primary =
    match d.Scheduler.dispatch with
    | Some j when target_ok st j && not (pinned_jid j.Job.jid) -> [ j ]
    | Some _ | None -> []
  in
  let in_primary j =
    match primary with [ p ] -> p.Job.jid = j.Job.jid | _ -> false
  in
  let rest =
    if m = 1 then []
    else begin
      let taken = ref 0 in
      List.filter
        (fun j ->
          if
            !taken < m - 1
            && target_ok st j
            && (not (pinned_jid j.Job.jid))
            && not (in_primary j)
          then begin
            incr taken;
            true
          end
          else false)
        d.Scheduler.schedule
    end
  in
  let frees = ref 0 in
  Array.iter (fun k -> if not k then incr frees) keep;
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  let selected = take !frees (primary @ rest) in
  let assign, migrations = assign_global st ~keep selected in
  {
    p_ops = d.Scheduler.ops;
    p_decisions = 1;
    p_aborts = d.Scheduler.aborts;
    p_assign = assign;
    p_keep = keep;
    p_migrations = migrations;
  }

let plan_partitioned st =
  let m = Cores.count st.cores in
  let queues = Cores.queues st.cores in
  let keep = Array.make m false in
  let assign = Array.make m None in
  let ops = ref 0 in
  let aborts = ref [] in
  for c = 0 to m - 1 do
    (match Cores.occupant st.cores c with
    | Some j when spin_pinned st j -> keep.(c) <- true
    | _ -> ());
    let jobs = Live_view.view queues.(c) in
    let d =
      st.schedulers.(c).Scheduler.decide ~now:st.now ~jobs
        ~remaining:st.remaining
    in
    ops := !ops + d.Scheduler.ops;
    aborts := !aborts @ d.Scheduler.aborts;
    if not keep.(c) then
      assign.(c) <-
        (match d.Scheduler.dispatch with
        | Some j when target_ok st j -> Some j
        | Some _ | None -> None)
  done;
  {
    p_ops = !ops;
    p_decisions = m;
    p_aborts = !aborts;
    p_assign = assign;
    p_keep = keep;
    p_migrations = 0;
  }

let apply_plan st plan =
  let m = Cores.count st.cores in
  for c = 0 to m - 1 do
    if not plan.p_keep.(c) then begin
      (* Re-check liveness: a deadlock victim aborted between planning
         and application leaves its slot idle. *)
      let target =
        match plan.p_assign.(c) with
        | Some j when target_ok st j -> Some j
        | Some _ | None -> None
      in
      let dispatch_onto j =
        if migrates_to j c then begin
          Trace.record st.trace ~time:st.now
            (Trace.Migrate (j.Job.jid, j.Job.last_core, c));
          Cores.note_migration st.cores
        end;
        set_running st ~core:c j
      in
      match (Cores.occupant st.cores c, target) with
      | Some cur, Some j when cur.Job.jid = j.Job.jid -> ()
      | Some cur, Some j ->
        preempt st ~by:j.Job.jid cur;
        dispatch_onto j
      | Some cur, None -> preempt st ~by:(-1) cur
      | None, Some j -> dispatch_onto j
      | None, None -> ()
    end
  done

(* Migration cost is charged through the ops accounting like scheduler
   ops: each migration the dispatcher commits to adds this many ops to
   its invocation. *)
let ops_per_migration = 8

let invoke_dispatcher st =
  let plan =
    match st.cfg.dispatch with
    | Cores.Global -> plan_global st
    | Cores.Partitioned -> plan_partitioned st
  in
  st.sched_invocations <- st.sched_invocations + 1;
  let ops = plan.p_ops + (ops_per_migration * plan.p_migrations) in
  let cost =
    (st.cfg.sched_base * plan.p_decisions) + (st.cfg.sched_per_op * ops)
  in
  Trace.record st.trace ~time:st.now (Trace.Sched (ops, cost));
  Float_buffer.push_int st.sched_costs cost;
  st.now <- st.now + cost;
  st.sched_overhead <- st.sched_overhead + cost;
  (* Deadlock victims (only possible with nested sections). *)
  List.iter
    (fun victim -> if Job.is_live victim then abort_job st victim)
    plan.p_aborts;
  apply_plan st plan

(* --- event handling ------------------------------------------------- *)

let handle_event st time ev =
  match ev with
  | Arrival task ->
    let jid = st.next_jid in
    st.next_jid <- st.next_jid + 1;
    let job = Job.create ~task ~jid ~arrival:time in
    Live_view.add st.live job;
    Cores.admit st.cores job;
    Event_queue.add st.queue
      ~time:(Job.absolute_critical_time job)
      (Expiry jid);
    Trace.record st.trace ~time:st.now
      (Trace.Arrive (jid, task.Task.id, time))
  | Expiry jid -> (
    match Live_view.find st.live ~jid with
    | None -> () (* already resolved *)
    | Some job -> abort_job st job)

(* Pop and handle every event due at or before [st.now] (and within the
   horizon). Returns the number handled. *)
let process_due_events st =
  let rec go n =
    match Event_queue.peek st.queue with
    | Some (t, _) when t <= st.now && t < st.cfg.horizon ->
      let t, ev = Event_queue.pop_exn st.queue in
      handle_event st t ev;
      go (n + 1)
    | Some _ | None -> n
  in
  go 0

(* --- running-job execution ------------------------------------------ *)

(* Set up per-attempt bookkeeping before executing a slice. *)
let prepare_attempt st job =
  match job.Job.segments with
  | Segment.Access { obj; _ } :: _ -> (
    if job.Job.access_enter = None then job.Job.access_enter <- Some st.now;
    match st.cfg.sync with
    | Sync.Lock_free _ ->
      if job.Job.seg_progress = 0 && job.Job.attempt_snapshot = None then
        job.Job.attempt_snapshot <- Some (Resource.version st.objects obj)
    | Sync.Lock_based _ | Sync.Spin _ | Sync.Ideal -> ())
  | (Segment.Lock _ | Segment.Unlock _) :: _
  | Segment.Compute _ :: _
  | [] ->
    ()

(* Nanoseconds until the running job's next boundary action. *)
let next_step st job =
  match job.Job.segments with
  | [] -> 0
  | Segment.Compute s :: _ -> max 0 (s - job.Job.seg_progress)
  | Segment.Access { work; _ } :: _ -> (
    match st.cfg.sync with
    | Sync.Ideal -> 0
    | Sync.Lock_free { overhead } ->
      max 0 (overhead + work - job.Job.seg_progress)
    | Sync.Lock_based { overhead } | Sync.Spin { overhead; _ } ->
      if not job.Job.lock_pending then max 0 (overhead - job.Job.seg_progress)
      else max 0 ((2 * overhead) + work - job.Job.seg_progress))
  | (Segment.Lock _ | Segment.Unlock _) :: _ -> (
    match st.cfg.sync with
    | Sync.Lock_based { overhead } | Sync.Spin { overhead; _ } ->
      max 0 (overhead - job.Job.seg_progress)
    | Sync.Lock_free _ | Sync.Ideal -> 0)

(* Close a finished access: sample its duration and mark it in the
   trace. *)
let access_done st job obj =
  (match job.Job.access_enter with
  | Some enter ->
    Stats.add st.access_samples (float_of_int (st.now - enter))
  | None -> Stats.add st.access_samples 0.0);
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
    job.Job.holding <- obj :: job.Job.holding;
    Contention.note_acquire st.contention.(obj);
    Trace.record st.trace ~time:st.now (Trace.Acquire (job.Job.jid, obj));
    true
  | Lock_manager.Blocked_on _ ->
    wait_for_lock st job obj;
    false

(* End a critical section on [obj]: hand the object to the head waiter,
   commit the section's write and count the access. *)
let release st job obj ~write =
  let new_owner = Lock_manager.release st.locks ~jid:job.Job.jid ~obj in
  job.Job.holding <- List.filter (fun o -> o <> obj) job.Job.holding;
  Trace.record st.trace ~time:st.now (Trace.Release (job.Job.jid, obj));
  wake_new_owner st obj new_owner;
  if write then commit_write st job.Job.jid obj;
  Resource.record_access st.objects obj

(* Complete the head segment; returns [`Sched_event] when the boundary
   is a scheduling event (job departure, a lock-based lock request, or
   any release — a spin release ends a non-preemptable section). *)
let boundary st job =
  let finish_or k =
    Job.finish_segment job;
    if job.Job.segments = [] then begin
      complete_job st job;
      `Sched_event
    end
    else k
  in
  match job.Job.segments with
  | [] ->
    complete_job st job;
    `Sched_event
  | Segment.Compute _ :: _ -> finish_or `Continue
  | Segment.Lock obj :: _ -> (
    match st.cfg.sync with
    | Sync.Lock_free _ | Sync.Ideal ->
      (* The lock-free model excludes nested sections (§3.3): lock
         markers are skipped at zero cost. *)
      finish_or `Continue
    | Sync.Lock_based _ | Sync.Spin _ ->
      if job.Job.lock_pending then begin
        (* Woken after waiting: the lock manager already granted the
           object on release (see [wake_new_owner]). *)
        assert (List.mem obj job.Job.holding);
        Job.finish_segment job;
        `Continue
      end
      else if acquire st job obj then finish_or (acquire_event st)
      else acquire_event st)
  | Segment.Unlock obj :: _ -> (
    match st.cfg.sync with
    | Sync.Lock_free _ | Sync.Ideal -> finish_or `Continue
    | Sync.Lock_based _ | Sync.Spin _ ->
      release st job obj ~write:true;
      finish_or `Sched_event)
  | Segment.Access { obj; work = _; write } :: _ -> (
    match (st.cfg.sync, job.Job.attempt_snapshot) with
    | Sync.Lock_free _, Some snap when snap <> Resource.version st.objects obj
      ->
      (* Attempt finished but invalidated by a peer's commit: retry. *)
      let lost = job.Job.seg_progress in
      Job.restart_access job;
      Contention.note_retry st.contention.(obj);
      Trace.record st.trace ~time:st.now
        (Trace.Retry (job.Job.jid, obj, st.last_writer.(obj), lost));
      `Continue
    | (Sync.Lock_free _ | Sync.Ideal), _ ->
      (* Only writers invalidate peers' in-flight attempts. *)
      if write then commit_write st job.Job.jid obj;
      Resource.record_access st.objects obj;
      Contention.note_acquire st.contention.(obj);
      access_done st job obj;
      finish_or `Continue
    | (Sync.Lock_based _ | Sync.Spin _), _ ->
      if not job.Job.lock_pending then begin
        ignore (acquire st job obj : bool);
        acquire_event st
      end
      else begin
        release st job obj ~write;
        access_done st job obj;
        finish_or `Sched_event
      end)

(* Advance every occupied core to the earliest per-core boundary (or
   the next event, whichever comes first). Spin-waiters burn CPU
   without making segment progress; their only exit is a grant from a
   holder's release boundary or an expiry abort. *)
let run_slice st =
  let m = Cores.count st.cores in
  let occ = Array.init m (fun c -> Cores.occupant st.cores c) in
  let steps = Array.make m (-1) in
  let dmin = ref max_int in
  for c = 0 to m - 1 do
    match occ.(c) with
    | None -> ()
    | Some job ->
      if not (spin_waiting st job) then begin
        prepare_attempt st job;
        let s = next_step st job in
        steps.(c) <- s;
        if s < !dmin then dmin := s
      end
  done;
  let next_ev =
    match Event_queue.peek_time st.queue with
    | Some t -> min t st.cfg.horizon
    | None -> st.cfg.horizon
  in
  let cbusy = Cores.busy st.cores in
  let burn delta =
    if delta > 0 then
      for c = 0 to m - 1 do
        match occ.(c) with
        | None -> ()
        | Some job ->
          if steps.(c) >= 0 then
            job.Job.seg_progress <- job.Job.seg_progress + delta;
          cbusy.(c) <- cbusy.(c) + delta;
          st.busy <- st.busy + delta
      done
  in
  if !dmin = max_int then begin
    (* Every occupied core is spinning: burn until the next event. *)
    burn (next_ev - st.now);
    st.now <- max st.now next_ev
  end
  else begin
    let finish = st.now + !dmin in
    if finish <= next_ev then begin
      burn !dmin;
      st.now <- finish;
      let sched_event = ref false in
      for c = 0 to m - 1 do
        if steps.(c) = !dmin then begin
          match occ.(c) with
          | Some job when Job.is_live job && Cores.occupant st.cores c == occ.(c)
            -> (
            match boundary st job with
            | `Sched_event -> sched_event := true
            | `Continue -> ())
          | Some _ | None -> ()
        end
      done;
      if !sched_event then invoke_dispatcher st
    end
    else begin
      burn (next_ev - st.now);
      st.now <- next_ev
    end
  end

(* --- main loop ------------------------------------------------------ *)

let rec main_loop st =
  if st.now < st.cfg.horizon then begin
    if process_due_events st > 0 then begin
      invoke_dispatcher st;
      main_loop st
    end
    else if Cores.any_running st.cores then begin
      run_slice st;
      main_loop st
    end
    else
      match Event_queue.peek_time st.queue with
      | None -> () (* no events, nothing running: done *)
      | Some t when t >= st.cfg.horizon -> ()
      | Some t ->
        st.now <- max st.now t;
        main_loop st
  end

(* --- result assembly ------------------------------------------------ *)

let summarise st =
  let cfg = st.cfg in
  let jobs = st.resolved in
  let max_id =
    List.fold_left (fun acc t -> max acc t.Task.id) (-1) cfg.tasks
  in
  let n_tasks = max_id + 1 in
  let released = Array.make n_tasks 0 in
  let completed = Array.make n_tasks 0 in
  let met = Array.make n_tasks 0 in
  let aborted = Array.make n_tasks 0 in
  let accrued = Array.make n_tasks 0.0 in
  let max_possible = Array.make n_tasks 0.0 in
  let total_retries = Array.make n_tasks 0 in
  let max_retries = Array.make n_tasks 0 in
  let sojourns = Array.init n_tasks (fun _ -> Stats.create ()) in
  let all_sojourns = Float_buffer.create () in
  let preempt_total = ref 0 in
  List.iter
    (fun (job : Job.t) ->
      let i = job.Job.task.Task.id in
      released.(i) <- released.(i) + 1;
      preempt_total := !preempt_total + job.Job.preemptions;
      max_possible.(i) <-
        max_possible.(i)
        (* The supremum of the TUF, not U(0): increasing piecewise
           shapes (Fig. 1(c)) peak after arrival, and AUR must stay
           within [0, 1]. *)
        +. Rtlf_model.Tuf.max_utility job.Job.task.Task.tuf;
      total_retries.(i) <- total_retries.(i) + job.Job.retries;
      if job.Job.retries > max_retries.(i) then
        max_retries.(i) <- job.Job.retries;
      match job.Job.state with
      | Job.Completed ->
        completed.(i) <- completed.(i) + 1;
        accrued.(i) <- accrued.(i) +. job.Job.accrued;
        (match Job.sojourn job with
        | Some s ->
          Stats.add sojourns.(i) (float_of_int s);
          Float_buffer.push_int all_sojourns s;
          if s < Task.critical_time job.Job.task then
            met.(i) <- met.(i) + 1
        | None -> ())
      | Job.Aborted -> aborted.(i) <- aborted.(i) + 1
      | Job.Ready | Job.Running | Job.Blocked _ -> assert false)
    jobs;
  let per_task =
    Array.init n_tasks (fun i ->
        {
          task_id = i;
          released = released.(i);
          completed = completed.(i);
          met = met.(i);
          aborted = aborted.(i);
          accrued = accrued.(i);
          max_possible = max_possible.(i);
          total_retries = total_retries.(i);
          max_retries = max_retries.(i);
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
  let sojourn_samples = Float_buffer.to_array all_sojourns in
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
    preemptions = !preempt_total;
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
  (* Theorem 2 is proved for RUA scheduling of lock-free sharing; the
     auditor stays disarmed elsewhere (lock-based and spin jobs never
     retry, and EDF is not a UA scheduler, so the bound does not
     apply). *)
  let audit_enabled =
    match (cfg.sync, cfg.sched) with
    | Sync.Lock_free _, Rua -> true
    | _ -> false
  in
  let n_tasks =
    1 + List.fold_left (fun acc t -> max acc t.Task.id) (-1) cfg.tasks
  in
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
        Rtlf_core.Static_mode.plan ~tasks:cfg.tasks
          ~remaining:(remaining_cost cfg.sync)
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
  let st =
    {
      cfg;
      queue = Event_queue.create ();
      objects;
      locks;
      schedulers =
        (if Array.length statics = 0 then
           Array.init n_schedulers (fun _ -> make_scheduler cfg locks)
         else Array.map Rtlf_core.Static_mode.scheduler statics);
      statics;
      remaining = remaining_cost cfg.sync;
      trace = Trace.create ?capacity:cfg.trace_capacity ~enabled:cfg.trace ();
      now = 0;
      cores = Cores.create ~m:cfg.cores ~policy:cfg.dispatch;
      next_jid = 0;
      live = Live_view.create ();
      resolved = [];
      sched_invocations = 0;
      sched_overhead = 0;
      busy = 0;
      blocked_events = 0;
      access_samples = Stats.create ();
      contention = Contention.make_array ~n:cfg.n_objects;
      block_since = Hashtbl.create 16;
      last_writer = Array.make (max 1 cfg.n_objects) (-1);
      blocking_spans = Float_buffer.create ();
      sched_costs = Float_buffer.create ();
      audit = Audit.create ~tasks:cfg.tasks ~enabled:audit_enabled;
      retry_tails = Array.init n_tasks (fun _ -> Stats.P2.tracker ());
    }
  in
  let root = Prng.create ~seed:cfg.seed in
  List.iter
    (fun task ->
      let g = Prng.split root in
      let arrivals =
        Uam.generate task.Task.arrival g ~start:0 ~horizon:cfg.horizon
      in
      List.iter
        (fun t -> Event_queue.add st.queue ~time:t (Arrival task))
        arrivals)
    cfg.tasks;
  main_loop st;
  summarise st
