(* Frozen copy of the pre-SMP single-CPU engine, kept as the reference
   implementation for the m = 1 differential suite (test_smp_diff):
   [Simulator.run] with [cores = 1] must produce bit-identical results
   to [Single_ref.run] on the same config. Adaptations from the
   historical code are limited to the new [Trace.Start] core payload
   (always core 0 here), the spin sync discipline at one core (where
   contention is impossible — a spin holder is non-preemptable, so no
   other job can reach a request point while an object is held), and
   the new result fields. Do not evolve this engine; evolve
   [Simulator] and keep this as the anchor. *)

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

type event = Arrival of Task.t | Expiry of int

type state = {
  cfg : Simulator.config;
  queue : event Event_queue.t;
  objects : Resource.t;
  locks : Lock_manager.t;
  scheduler : Scheduler.t;
  remaining : Job.t -> int;
  trace : Trace.t;
  mutable now : int;
  mutable running : Job.t option;
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
  last_writer : int array;
  blocking_spans : Float_buffer.t;
  sched_costs : Float_buffer.t;
  audit : Audit.t;
  retry_tails : Stats.P2.tracker array;
}

let make_scheduler (cfg : Simulator.config) locks =
  match cfg.Simulator.sched with
  | Simulator.Edf -> Rtlf_core.Edf.make ()
  | Simulator.Edf_pip -> Rtlf_core.Edf_pip.make ~locks
  | Simulator.Rua -> (
    match cfg.Simulator.sync with
    | Sync.Lock_based _ -> Rtlf_core.Rua_lock_based.make ~locks
    | Sync.Lock_free _ | Sync.Spin _ | Sync.Ideal ->
      Rtlf_core.Rua_lock_free.make ())

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
  match st.cfg.Simulator.sync with Sync.Spin _ -> true | _ -> false

let spin_waiting st job =
  is_spin st
  && (match job.Job.state with Job.Blocked _ -> true | _ -> false)

let spin_pinned st job =
  is_spin st
  && (job.Job.holding <> []
     || (match job.Job.state with Job.Blocked _ -> true | _ -> false))

(* --- job lifecycle ------------------------------------------------- *)

let resolve st job =
  let task_id = job.Job.task.Task.id in
  Audit.observe st.audit ~task_id ~jid:job.Job.jid ~retries:job.Job.retries
    ~time:st.now;
  Stats.P2.track st.retry_tails.(task_id) (float_of_int job.Job.retries);
  Live_view.remove st.live ~jid:job.Job.jid;
  st.resolved <- job :: st.resolved

let complete_job st job =
  job.Job.state <- Job.Completed;
  job.Job.completion <- Some st.now;
  job.Job.accrued <- Job.utility_at job ~now:st.now;
  Trace.record st.trace ~time:st.now (Trace.Complete job.Job.jid);
  if st.running = Some job then st.running <- None;
  resolve st job

let close_block_span st jid =
  match Hashtbl.find_opt st.block_since jid with
  | None -> ()
  | Some (obj, since) ->
    let span = st.now - since in
    Contention.note_blocked st.contention.(obj) ~ns:span;
    Float_buffer.push_int st.blocking_spans span;
    Hashtbl.remove st.block_since jid

let wake_new_owner st obj = function
  | None -> ()
  | Some jid -> (
    match Live_view.find st.live ~jid with
    | None -> ()
    | Some waiter ->
      waiter.Job.state <-
        (if
           is_spin st
           && (match st.running with
              | Some r -> r.Job.jid = waiter.Job.jid
              | None -> false)
         then Job.Running
         else Job.Ready);
      waiter.Job.holding <- obj :: waiter.Job.holding;
      close_block_span st waiter.Job.jid;
      Contention.note_acquire st.contention.(obj);
      Trace.record st.trace ~time:st.now (Trace.Wake (waiter.Job.jid, obj));
      Trace.record st.trace ~time:st.now
        (Trace.Acquire (waiter.Job.jid, obj)))

let block_job st job obj =
  job.Job.state <- Job.Blocked obj;
  job.Job.blocked_count <- job.Job.blocked_count + 1;
  st.blocked_events <- st.blocked_events + 1;
  let c = st.contention.(obj) in
  Contention.note_conflict c;
  Contention.note_queue_depth c
    ~depth:(List.length (Lock_manager.waiters st.locks ~obj));
  Hashtbl.replace st.block_since job.Job.jid (obj, st.now);
  Trace.record st.trace ~time:st.now (Trace.Block (job.Job.jid, obj));
  st.running <- None

(* A refused spin request keeps the CPU and burns it (unreachable at
   one core in practice, but kept identical to the m-core engine). *)
let spin_wait_job st job obj =
  job.Job.state <- Job.Blocked obj;
  job.Job.blocked_count <- job.Job.blocked_count + 1;
  st.blocked_events <- st.blocked_events + 1;
  let c = st.contention.(obj) in
  Contention.note_conflict c;
  Contention.note_queue_depth c
    ~depth:(List.length (Lock_manager.waiters st.locks ~obj));
  Hashtbl.replace st.block_since job.Job.jid (obj, st.now);
  Trace.record st.trace ~time:st.now (Trace.Block (job.Job.jid, obj))

let abort_job st job =
  (match st.cfg.Simulator.sync with
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
  let handler = max 0 job.Job.task.Task.abort_cost in
  Trace.record st.trace ~time:st.now (Trace.Abort (job.Job.jid, handler));
  if st.running = Some job then st.running <- None;
  if handler > 0 then begin
    st.now <- st.now + handler;
    st.busy <- st.busy + handler
  end;
  resolve st job

let preempt st ~by job =
  job.Job.state <- Job.Ready;
  job.Job.preemptions <- job.Job.preemptions + 1;
  Trace.record st.trace ~time:st.now (Trace.Preempt (job.Job.jid, by));
  (match (st.cfg.Simulator.sync, job.Job.segments) with
  | Sync.Lock_free _, Segment.Access { obj; _ } :: _
    when st.cfg.Simulator.retry_on_any_preemption && job.Job.seg_progress > 0
    ->
    let lost = job.Job.seg_progress in
    Job.restart_access job;
    Contention.note_retry st.contention.(obj);
    Trace.record st.trace ~time:st.now
      (Trace.Retry (job.Job.jid, obj, by, lost))
  | _ -> ());
  st.running <- None

let commit_write st jid obj =
  Resource.bump st.objects obj;
  st.last_writer.(obj) <- jid

let set_running st job =
  job.Job.state <- Job.Running;
  Trace.record st.trace ~time:st.now (Trace.Start (job.Job.jid, 0));
  job.Job.last_core <- 0;
  st.running <- Some job

(* --- scheduler invocation ------------------------------------------ *)

let invoke_scheduler st =
  let jobs = Live_view.view st.live in
  let decision =
    st.scheduler.Scheduler.decide ~now:st.now ~jobs ~remaining:st.remaining
  in
  (* The pinned flag is computed before the deadlock aborts, matching
     the m-core planner. *)
  let pinned =
    match st.running with Some j -> spin_pinned st j | None -> false
  in
  st.sched_invocations <- st.sched_invocations + 1;
  let cost =
    st.cfg.Simulator.sched_base
    + (st.cfg.Simulator.sched_per_op * decision.Scheduler.ops)
  in
  Trace.record st.trace ~time:st.now
    (Trace.Sched (decision.Scheduler.ops, cost));
  Float_buffer.push_int st.sched_costs cost;
  st.now <- st.now + cost;
  st.sched_overhead <- st.sched_overhead + cost;
  List.iter
    (fun victim -> if Job.is_live victim then abort_job st victim)
    decision.Scheduler.aborts;
  if not pinned then begin
    let target =
      match decision.Scheduler.dispatch with
      | Some j when Job.is_runnable j && Live_view.mem st.live ~jid:j.Job.jid
        ->
        Some j
      | Some _ | None -> None
    in
    match (st.running, target) with
    | Some cur, Some j when cur.Job.jid = j.Job.jid -> ()
    | Some cur, Some j ->
      preempt st ~by:j.Job.jid cur;
      set_running st j
    | Some cur, None -> preempt st ~by:(-1) cur
    | None, Some j -> set_running st j
    | None, None -> ()
  end

(* --- event handling ------------------------------------------------- *)

let handle_event st time ev =
  match ev with
  | Arrival task ->
    let jid = st.next_jid in
    st.next_jid <- st.next_jid + 1;
    let job = Job.create ~task ~jid ~arrival:time in
    Live_view.add st.live job;
    Event_queue.add st.queue
      ~time:(Job.absolute_critical_time job)
      (Expiry jid);
    Trace.record st.trace ~time:st.now
      (Trace.Arrive (jid, task.Task.id, time))
  | Expiry jid -> (
    match Live_view.find st.live ~jid with
    | None -> ()
    | Some job -> abort_job st job)

let process_due_events st =
  let rec go n =
    match Event_queue.peek st.queue with
    | Some (t, _) when t <= st.now && t < st.cfg.Simulator.horizon ->
      let t, ev = Event_queue.pop_exn st.queue in
      handle_event st t ev;
      go (n + 1)
    | Some _ | None -> n
  in
  go 0

(* --- running-job execution ------------------------------------------ *)

let prepare_attempt st job =
  match job.Job.segments with
  | Segment.Access { obj; _ } :: _ -> (
    if job.Job.access_enter = None then job.Job.access_enter <- Some st.now;
    match st.cfg.Simulator.sync with
    | Sync.Lock_free _ ->
      if job.Job.seg_progress = 0 && job.Job.attempt_snapshot = None then
        job.Job.attempt_snapshot <- Some (Resource.version st.objects obj)
    | Sync.Lock_based _ | Sync.Spin _ | Sync.Ideal -> ())
  | (Segment.Lock _ | Segment.Unlock _) :: _
  | Segment.Compute _ :: _
  | [] ->
    ()

let next_step st job =
  match job.Job.segments with
  | [] -> 0
  | Segment.Compute s :: _ -> max 0 (s - job.Job.seg_progress)
  | Segment.Access { work; _ } :: _ -> (
    match st.cfg.Simulator.sync with
    | Sync.Ideal -> 0
    | Sync.Lock_free { overhead } ->
      max 0 (overhead + work - job.Job.seg_progress)
    | Sync.Lock_based { overhead } | Sync.Spin { overhead; _ } ->
      if not job.Job.lock_pending then max 0 (overhead - job.Job.seg_progress)
      else max 0 ((2 * overhead) + work - job.Job.seg_progress))
  | (Segment.Lock _ | Segment.Unlock _) :: _ -> (
    match st.cfg.Simulator.sync with
    | Sync.Lock_based { overhead } | Sync.Spin { overhead; _ } ->
      max 0 (overhead - job.Job.seg_progress)
    | Sync.Lock_free _ | Sync.Ideal -> 0)

let record_access_sample st job =
  match job.Job.access_enter with
  | Some enter -> Stats.add st.access_samples (float_of_int (st.now - enter))
  | None -> Stats.add st.access_samples 0.0

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
    match st.cfg.Simulator.sync with
    | Sync.Lock_free _ | Sync.Ideal -> finish_or `Continue
    | Sync.Lock_based _ ->
      if job.Job.lock_pending then begin
        assert (List.mem obj job.Job.holding);
        Job.finish_segment job;
        `Continue
      end
      else begin
        job.Job.lock_pending <- true;
        match Lock_manager.request st.locks ~jid:job.Job.jid ~obj with
        | Lock_manager.Granted ->
          job.Job.holding <- obj :: job.Job.holding;
          Contention.note_acquire st.contention.(obj);
          Trace.record st.trace ~time:st.now
            (Trace.Acquire (job.Job.jid, obj));
          Job.finish_segment job;
          if job.Job.segments = [] then complete_job st job;
          `Sched_event
        | Lock_manager.Blocked_on _ ->
          block_job st job obj;
          `Sched_event
      end
    | Sync.Spin _ ->
      if job.Job.lock_pending then begin
        assert (List.mem obj job.Job.holding);
        Job.finish_segment job;
        `Continue
      end
      else begin
        job.Job.lock_pending <- true;
        match Lock_manager.request st.locks ~jid:job.Job.jid ~obj with
        | Lock_manager.Granted ->
          job.Job.holding <- obj :: job.Job.holding;
          Contention.note_acquire st.contention.(obj);
          Trace.record st.trace ~time:st.now
            (Trace.Acquire (job.Job.jid, obj));
          finish_or `Continue
        | Lock_manager.Blocked_on _ ->
          spin_wait_job st job obj;
          `Continue
      end)
  | Segment.Unlock obj :: _ -> (
    match st.cfg.Simulator.sync with
    | Sync.Lock_free _ | Sync.Ideal -> finish_or `Continue
    | Sync.Lock_based _ | Sync.Spin _ ->
      let new_owner = Lock_manager.release st.locks ~jid:job.Job.jid ~obj in
      job.Job.holding <- List.filter (fun o -> o <> obj) job.Job.holding;
      Trace.record st.trace ~time:st.now (Trace.Release (job.Job.jid, obj));
      wake_new_owner st obj new_owner;
      commit_write st job.Job.jid obj;
      Resource.record_access st.objects obj;
      Job.finish_segment job;
      if job.Job.segments = [] then complete_job st job;
      `Sched_event)
  | Segment.Access { obj; work = _; write } :: _ -> (
    match st.cfg.Simulator.sync with
    | Sync.Ideal ->
      Resource.record_access st.objects obj;
      if write then commit_write st job.Job.jid obj;
      Contention.note_acquire st.contention.(obj);
      record_access_sample st job;
      Trace.record st.trace ~time:st.now
        (Trace.Access_done (job.Job.jid, obj));
      finish_or `Continue
    | Sync.Lock_free _ -> (
      let current = Resource.version st.objects obj in
      match job.Job.attempt_snapshot with
      | Some snap when snap <> current ->
        let lost = job.Job.seg_progress in
        Job.restart_access job;
        Contention.note_retry st.contention.(obj);
        Trace.record st.trace ~time:st.now
          (Trace.Retry (job.Job.jid, obj, st.last_writer.(obj), lost));
        `Continue
      | Some _ | None ->
        if write then commit_write st job.Job.jid obj;
        Resource.record_access st.objects obj;
        Contention.note_acquire st.contention.(obj);
        record_access_sample st job;
        Trace.record st.trace ~time:st.now
          (Trace.Access_done (job.Job.jid, obj));
        finish_or `Continue)
    | Sync.Lock_based _ ->
      if not job.Job.lock_pending then begin
        job.Job.lock_pending <- true;
        match Lock_manager.request st.locks ~jid:job.Job.jid ~obj with
        | Lock_manager.Granted ->
          job.Job.holding <- obj :: job.Job.holding;
          Contention.note_acquire st.contention.(obj);
          Trace.record st.trace ~time:st.now
            (Trace.Acquire (job.Job.jid, obj));
          `Sched_event
        | Lock_manager.Blocked_on _ ->
          block_job st job obj;
          `Sched_event
      end
      else begin
        let new_owner = Lock_manager.release st.locks ~jid:job.Job.jid ~obj in
        job.Job.holding <- List.filter (fun o -> o <> obj) job.Job.holding;
        Trace.record st.trace ~time:st.now
          (Trace.Release (job.Job.jid, obj));
        wake_new_owner st obj new_owner;
        if write then commit_write st job.Job.jid obj;
        Resource.record_access st.objects obj;
        record_access_sample st job;
        Trace.record st.trace ~time:st.now
          (Trace.Access_done (job.Job.jid, obj));
        Job.finish_segment job;
        if job.Job.segments = [] then complete_job st job;
        `Sched_event
      end
    | Sync.Spin _ ->
      if not job.Job.lock_pending then begin
        job.Job.lock_pending <- true;
        match Lock_manager.request st.locks ~jid:job.Job.jid ~obj with
        | Lock_manager.Granted ->
          job.Job.holding <- obj :: job.Job.holding;
          Contention.note_acquire st.contention.(obj);
          Trace.record st.trace ~time:st.now
            (Trace.Acquire (job.Job.jid, obj));
          `Continue
        | Lock_manager.Blocked_on _ ->
          spin_wait_job st job obj;
          `Continue
      end
      else begin
        let new_owner = Lock_manager.release st.locks ~jid:job.Job.jid ~obj in
        job.Job.holding <- List.filter (fun o -> o <> obj) job.Job.holding;
        Trace.record st.trace ~time:st.now
          (Trace.Release (job.Job.jid, obj));
        wake_new_owner st obj new_owner;
        if write then commit_write st job.Job.jid obj;
        Resource.record_access st.objects obj;
        record_access_sample st job;
        Trace.record st.trace ~time:st.now
          (Trace.Access_done (job.Job.jid, obj));
        Job.finish_segment job;
        if job.Job.segments = [] then complete_job st job;
        `Sched_event
      end)

let run_slice st job =
  let next_ev =
    match Event_queue.peek_time st.queue with
    | Some t -> min t st.cfg.Simulator.horizon
    | None -> st.cfg.Simulator.horizon
  in
  if spin_waiting st job then begin
    (* Busy-wait burn: CPU consumed, no segment progress. *)
    let delta = next_ev - st.now in
    if delta > 0 then st.busy <- st.busy + delta;
    st.now <- max st.now next_ev
  end
  else begin
    prepare_attempt st job;
    let step = next_step st job in
    let finish = st.now + step in
    if finish <= next_ev then begin
      job.Job.seg_progress <- job.Job.seg_progress + step;
      st.busy <- st.busy + step;
      st.now <- finish;
      match boundary st job with
      | `Sched_event -> invoke_scheduler st
      | `Continue -> ()
    end
    else begin
      let delta = next_ev - st.now in
      job.Job.seg_progress <- job.Job.seg_progress + delta;
      st.busy <- st.busy + delta;
      st.now <- next_ev
    end
  end

(* --- main loop ------------------------------------------------------ *)

let rec main_loop st =
  if st.now < st.cfg.Simulator.horizon then begin
    if process_due_events st > 0 then begin
      invoke_scheduler st;
      main_loop st
    end
    else
      match st.running with
      | Some job ->
        run_slice st job;
        main_loop st
      | None -> (
        match Event_queue.peek_time st.queue with
        | None -> ()
        | Some t when t >= st.cfg.Simulator.horizon -> ()
        | Some t ->
          st.now <- max st.now t;
          main_loop st)
  end

(* --- result assembly ------------------------------------------------ *)

let summarise st : Simulator.result =
  let cfg = st.cfg in
  let jobs = st.resolved in
  let max_id =
    List.fold_left (fun acc t -> max acc t.Task.id) (-1) cfg.Simulator.tasks
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
        max_possible.(i) +. Rtlf_model.Tuf.max_utility job.Job.task.Task.tuf;
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
          if s < Task.critical_time job.Job.task then met.(i) <- met.(i) + 1
        | None -> ())
      | Job.Aborted -> aborted.(i) <- aborted.(i) + 1
      | Job.Ready | Job.Running | Job.Blocked _ -> assert false)
    jobs;
  let per_task =
    Array.init n_tasks (fun i ->
        {
          Simulator.task_id = i;
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
  let sum f =
    Array.fold_left (fun acc tr -> acc + f tr) 0 per_task
  in
  let sumf f =
    Array.fold_left (fun acc tr -> acc +. f tr) 0.0 per_task
  in
  let released_all = sum (fun tr -> tr.Simulator.released) in
  let completed_all = sum (fun tr -> tr.Simulator.completed) in
  let met_all = sum (fun tr -> tr.Simulator.met) in
  let accrued_all = sumf (fun tr -> tr.Simulator.accrued) in
  let possible_all = sumf (fun tr -> tr.Simulator.max_possible) in
  let sojourn_samples = Float_buffer.to_array all_sojourns in
  {
    Simulator.sync_name = Sync.name cfg.Simulator.sync;
    sched_name = st.scheduler.Scheduler.name;
    dispatch_name = Cores.policy_name cfg.Simulator.dispatch;
    cores = 1;
    final_time = st.now;
    released = released_all;
    completed = completed_all;
    met = met_all;
    aborted = sum (fun tr -> tr.Simulator.aborted);
    in_flight = Live_view.count st.live;
    accrued = accrued_all;
    max_possible = possible_all;
    aur = (if possible_all > 0.0 then accrued_all /. possible_all else 0.0);
    cmr =
      (if released_all > 0 then
         float_of_int met_all /. float_of_int released_all
       else 0.0);
    retries_total = sum (fun tr -> tr.Simulator.total_retries);
    preemptions = !preempt_total;
    blocked_events = st.blocked_events;
    migrations = 0;
    sched_invocations = st.sched_invocations;
    sched_overhead = st.sched_overhead;
    busy = st.busy;
    per_core_busy = [| st.busy |];
    access_samples = Stats.summary st.access_samples;
    sojourn_samples;
    sojourn_hist = Stats.histogram sojourn_samples;
    blocking_hist = Stats.histogram (Float_buffer.to_array st.blocking_spans);
    sched_hist = Stats.histogram (Float_buffer.to_array st.sched_costs);
    contention = st.contention;
    per_task;
    audit = Audit.report st.audit;
    trace = st.trace;
    (* The retained engine predates (and never grew) static mode. *)
    static = None;
  }

let validate (cfg : Simulator.config) =
  if cfg.Simulator.horizon <= 0 then
    invalid_arg "Simulator: horizon must be positive";
  if cfg.Simulator.cores <> 1 then
    invalid_arg "Single_ref: the reference engine is single-core";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun t ->
      if Hashtbl.mem seen t.Task.id then
        invalid_arg "Simulator: duplicate task id";
      Hashtbl.replace seen t.Task.id ();
      List.iter
        (fun (obj, _) ->
          if obj < 0 || obj >= cfg.Simulator.n_objects then
            invalid_arg "Simulator: access references unknown object")
        t.Task.accesses)
    cfg.Simulator.tasks

let run (cfg : Simulator.config) =
  validate cfg;
  let objects = Resource.create ~n:cfg.Simulator.n_objects in
  let locks = Lock_manager.create ~objects in
  let audit_enabled =
    match (cfg.Simulator.sync, cfg.Simulator.sched) with
    | Sync.Lock_free _, Simulator.Rua -> true
    | _ -> false
  in
  let n_tasks =
    1
    + List.fold_left
        (fun acc t -> max acc t.Task.id)
        (-1) cfg.Simulator.tasks
  in
  let st =
    {
      cfg;
      queue = Event_queue.create ();
      objects;
      locks;
      scheduler = make_scheduler cfg locks;
      remaining = remaining_cost cfg.Simulator.sync;
      trace =
        Trace.create ?capacity:cfg.Simulator.trace_capacity
          ~enabled:cfg.Simulator.trace ();
      now = 0;
      running = None;
      next_jid = 0;
      live = Live_view.create ();
      resolved = [];
      sched_invocations = 0;
      sched_overhead = 0;
      busy = 0;
      blocked_events = 0;
      access_samples = Stats.create ();
      contention = Contention.make_array ~n:cfg.Simulator.n_objects;
      block_since = Hashtbl.create 16;
      last_writer = Array.make (max 1 cfg.Simulator.n_objects) (-1);
      blocking_spans = Float_buffer.create ();
      sched_costs = Float_buffer.create ();
      audit =
        Audit.create ~tasks:cfg.Simulator.tasks ~enabled:audit_enabled;
      retry_tails = Array.init n_tasks (fun _ -> Stats.P2.tracker ());
    }
  in
  let root = Prng.create ~seed:cfg.Simulator.seed in
  List.iter
    (fun task ->
      let g = Prng.split root in
      let arrivals =
        Uam.generate task.Task.arrival g ~start:0
          ~horizon:cfg.Simulator.horizon
      in
      List.iter (fun t -> Event_queue.add st.queue ~time:t (Arrival task)) arrivals)
    cfg.Simulator.tasks;
  main_loop st;
  summarise st
