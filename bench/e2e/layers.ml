(* The per-layer pass: times each layer's public functions from outside,
   over traced runs of one workload.

   Layers are named after the lib/ directories. The simulator's own
   phases cannot be timed from outside, so two of them are rebuilt from
   the trace and timed in isolation: decide (every [Sched] entry replays
   the scheduler on the live set the trace implies) and the event queue
   (the run's arrivals and expiries go through a fresh queue). What is
   left of an untraced run's host time is [sim.other_share]. *)

module Simulator = Rtlf_sim.Simulator
module Trace = Rtlf_sim.Trace
module Workload = Rtlf_workload.Workload
module Common = Rtlf_experiments.Common
module Job = Rtlf_model.Job
module Task = Rtlf_model.Task
module Lock_manager = Rtlf_model.Lock_manager
module Scheduler = Rtlf_core.Scheduler
module Obs = Rtlf_obs

let clock = Host.clock

(* --- spans ------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  start_ns : int;
  end_ns : int;
  parent : int;  (** id of the enclosing span, [-1] at the top *)
  run : int;     (** index of the layer run the span belongs to *)
}

(* Spans are kept in memory and written into the output document when
   the benchmark ends. *)
let spans : span list ref = ref []
let next_id = ref 0

let span ?(parent = -1) ~run name f =
  let id = !next_id in
  incr next_id;
  let start_ns = clock () in
  let v = f id in
  spans := { id; name; start_ns; end_ns = clock (); parent; run } :: !spans;
  v

let span_json s =
  Obs.Json.Obj
    [
      ("id", Int s.id); ("name", Str s.name); ("start_ns", Int s.start_ns);
      ("end_ns", Int s.end_ns); ("parent", Int s.parent); ("run", Int s.run);
    ]

(* Time [f ()] in ns, without a span. *)
let timed f =
  let t0 = clock () in
  let v = f () in
  (v, clock () - t0)

(* --- decide replay ---------------------------------------------------- *)

let make_scheduler cfg locks =
  match Simulator.scheduler_name cfg with
  | "rua-lock-free" -> Rtlf_core.Rua_lock_free.make ()
  | "rua-lock-based" -> Rtlf_core.Rua_lock_based.make ~locks
  | "edf" -> Rtlf_core.Edf.make ()
  | "edf-pip" -> Rtlf_core.Edf_pip.make ~locks
  | other -> invalid_arg ("Layers: no replay for scheduler " ^ other)

type decide_stats = {
  mutable calls : int;
  mutable agree : int;  (** replayed [ops] equal to the traced [Sched] ops *)
  mutable total_ns : int;
  samples : Rtlf_engine.Float_buffer.t;  (** per-call ns *)
}

(* Walk the trace, rebuild the scheduler's inputs, and time the decider
   the run used at every [Sched] entry. *)
let replay_decide (st : decide_stats) (cfg : Simulator.config) entries =
  let objects = Rtlf_model.Resource.create ~n:cfg.n_objects in
  let locks = Lock_manager.create ~objects in
  let sched = make_scheduler cfg locks in
  let tasks = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace tasks t.Task.id t) cfg.tasks;
  let live = Hashtbl.create 256 in
  let view = ref [||] and dirty = ref true in
  let job jid = Hashtbl.find live jid in
  let set_state jid s = (job jid).Job.state <- s in
  let drop jid =
    ignore (Lock_manager.release_all locks ~jid);
    Hashtbl.remove live jid;
    dirty := true
  in
  List.iter
    (fun { Trace.time; kind } ->
      match kind with
      | Trace.Arrive (jid, tid, arrival) ->
        Hashtbl.replace live jid
          (Job.create ~task:(Hashtbl.find tasks tid) ~jid ~arrival);
        dirty := true
      | Trace.Start (jid, _) -> set_state jid Job.Running
      | Trace.Preempt (jid, _) | Trace.Wake (jid, _) -> set_state jid Job.Ready
      | Trace.Block (jid, obj) ->
        ignore (Lock_manager.request locks ~jid ~obj);
        set_state jid (Job.Blocked obj)
      | Trace.Acquire (jid, obj) ->
        ignore (Lock_manager.request locks ~jid ~obj);
        let j = job jid in
        if not (List.mem obj j.Job.holding) then
          j.Job.holding <- obj :: j.Job.holding
      | Trace.Release (jid, obj) ->
        ignore (Lock_manager.release locks ~jid ~obj);
        let j = job jid in
        j.Job.holding <- List.filter (fun o -> o <> obj) j.Job.holding
      | Trace.Complete jid | Trace.Abort (jid, _) -> drop jid
      | Trace.Sched (ops, _) ->
        if !dirty then begin
          let a = Array.of_seq (Hashtbl.to_seq_values live) in
          Array.sort (fun x y -> compare x.Job.jid y.Job.jid) a;
          view := a;
          dirty := false
        end;
        let jobs = !view in
        let d, ns =
          timed (fun () ->
              sched.Scheduler.decide ~now:time ~jobs
                ~remaining:Job.remaining_nominal)
        in
        st.calls <- st.calls + 1;
        if d.Scheduler.ops = ops then st.agree <- st.agree + 1;
        st.total_ns <- st.total_ns + ns;
        Rtlf_engine.Float_buffer.push_int st.samples ns
      | Trace.Migrate _ | Trace.Retry _ | Trace.Access_done _ -> ())
    entries

(* --- queue replay ----------------------------------------------------- *)

type queue_ev = Arrival of Task.t | Expiry

(* Regenerate the run's arrivals exactly as [Simulator.run] does, push
   them, then pop in order up to the horizon, pushing each arrival's
   expiry. Returns (queue ops, ns spent in queue operations). *)
let replay_queue (cfg : Simulator.config) =
  let root = Rtlf_engine.Prng.create ~seed:cfg.seed in
  let arrivals =
    List.map
      (fun task ->
        let g = Rtlf_engine.Prng.split root in
        ( task,
          Rtlf_model.Uam.generate task.Task.arrival g ~start:0
            ~horizon:cfg.horizon ))
      cfg.tasks
  in
  let q = Rtlf_engine.Event_queue.create () in
  let ops = ref 0 in
  let (), push_ns =
    timed (fun () ->
        List.iter
          (fun (task, ts) ->
            List.iter
              (fun t ->
                incr ops;
                Rtlf_engine.Event_queue.add q ~time:t (Arrival task))
              ts)
          arrivals)
  in
  let rec drain () =
    match Rtlf_engine.Event_queue.pop q with
    | Some (t, ev) when t < cfg.horizon ->
      incr ops;
      (match ev with
      | Arrival task ->
        incr ops;
        Rtlf_engine.Event_queue.add q ~time:(t + Task.critical_time task) Expiry
      | Expiry -> ());
      drain ()
    | Some _ -> incr ops
    | None -> ()
  in
  let (), pop_ns = timed drain in
  (!ops, push_ns + pop_ns)

(* --- one workload's layer pass --------------------------------------- *)

(* Runs whose traces also go through the observability exporters. *)
let obs_runs = 5

let words () = Gc.minor_words ()

type acc = {
  mutable make_ns : float list;
  mutable untraced_ns : int;
  mutable traced_ns : int;
  mutable minor_words : float;
  mutable invocations : int;
  mutable entries : int;
  mutable queue_ops : int;
  mutable queue_ns : int;
  mutable accesses : int;
  mutable retries : int;
  mutable acquires : int;
  mutable blocks : int;
  mutable released : int;
  mutable aborted : int;
  mutable obs_entries : int;
  mutable attribution_ns : int;
  mutable blame_ns : int;
  mutable metrics_ns : int;
  mutable chrome_ns : int;
  mutable obs_traces : int;
  mutable failures : (int * string) list;  (** (layer run, what broke) *)
}

let layer_run acc dstats ~run (inp : Workloads.run_input) =
  span ~run "layer-run" (fun parent ->
      let tasks, make_ns =
        timed (fun () ->
            span ~parent ~run "workload.make" (fun _ -> Workload.make inp.spec))
      in
      acc.make_ns <- float_of_int make_ns :: acc.make_ns;
      let cfg = { inp.cfg with Simulator.tasks; trace = false } in
      let untraced () =
        timed (fun () ->
            span ~parent ~run "sim.run" (fun _ -> Simulator.run cfg))
      in
      let w0 = words () in
      let r, ns = untraced () in
      acc.minor_words <- acc.minor_words +. (words () -. w0);
      acc.invocations <- acc.invocations + r.Simulator.sched_invocations;
      let traced = { cfg with Simulator.trace = true } in
      let tr, tns =
        timed (fun () ->
            span ~parent ~run "sim.run_traced" (fun _ -> Simulator.run traced))
      in
      acc.traced_ns <- acc.traced_ns + tns;
      (* Tracing must not change what is simulated. *)
      List.iter
        (fun m -> acc.failures <- (run, m) :: acc.failures)
        ((if Workloads.digest tr <> Workloads.digest r then
            [ "traced run's digest differs from the untraced run's" ]
          else [])
        @ Workloads.invariant_failures r);
      (* Untraced runs on both sides of the traced one, keeping the
         faster: tracing costs about 1 % of an overload run, less than
         one run's host noise. *)
      let _, ns' = untraced () in
      acc.untraced_ns <- acc.untraced_ns + min ns ns';
      let entries = Trace.entries tr.Simulator.trace in
      let n_entries = List.length entries in
      acc.entries <- acc.entries + n_entries;
      List.iter
        (fun e ->
          match e.Trace.kind with
          | Trace.Access_done _ -> acc.accesses <- acc.accesses + 1
          | Trace.Retry _ -> acc.retries <- acc.retries + 1
          | Trace.Acquire _ -> acc.acquires <- acc.acquires + 1
          | Trace.Block _ -> acc.blocks <- acc.blocks + 1
          | _ -> ())
        entries;
      acc.released <- acc.released + tr.Simulator.released;
      acc.aborted <- acc.aborted + tr.Simulator.aborted;
      span ~parent ~run "core.decide_replay" (fun _ ->
          replay_decide dstats traced entries);
      let qops, qns =
        span ~parent ~run "engine.queue_replay" (fun _ -> replay_queue cfg)
      in
      acc.queue_ops <- acc.queue_ops + qops;
      acc.queue_ns <- acc.queue_ns + qns;
      if run < obs_runs then begin
        acc.obs_traces <- acc.obs_traces + 1;
        acc.obs_entries <- acc.obs_entries + n_entries;
        let a, ans =
          timed (fun () ->
              span ~parent ~run "obs.attribution" (fun _ ->
                  match
                    Obs.Attribution.of_trace ~tasks:cfg.Simulator.tasks
                      tr.Simulator.trace
                  with
                  | Ok a -> a
                  | Error msg -> failwith ("attribution refused: " ^ msg)))
        in
        acc.attribution_ns <- acc.attribution_ns + ans;
        let (_ : string), bns =
          timed (fun () ->
              span ~parent ~run "obs.blame" (fun _ ->
                  Obs.Json.to_string
                    (Obs.Blame.to_json (Obs.Blame.of_attribution a))))
        in
        acc.blame_ns <- acc.blame_ns + bns;
        let (_ : string), mns =
          timed (fun () ->
              span ~parent ~run "obs.metrics_json" (fun _ ->
                  Obs.Result_json.metrics_to_string tr))
        in
        acc.metrics_ns <- acc.metrics_ns + mns;
        let (_ : string), cns =
          timed (fun () ->
              span ~parent ~run "obs.chrome_trace" (fun _ ->
                  Obs.Chrome_trace.to_string tr.Simulator.trace))
        in
        acc.chrome_ns <- acc.chrome_ns + cns
      end)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let median xs = Rtlf_engine.Stats.percentile (Array.of_list xs) ~p:50.0

(* The per-layer metrics of one workload, as (name, unit, value) in the
   order BENCHMARK.json lists them, and the layer runs' failures. *)
let measure inputs =
  let acc =
    {
      make_ns = []; untraced_ns = 0; traced_ns = 0; minor_words = 0.0;
      invocations = 0; entries = 0; queue_ops = 0; queue_ns = 0; accesses = 0;
      retries = 0; acquires = 0; blocks = 0; released = 0; aborted = 0;
      obs_entries = 0; attribution_ns = 0; blame_ns = 0; metrics_ns = 0;
      chrome_ns = 0; obs_traces = 0; failures = [];
    }
  in
  let d =
    {
      calls = 0; agree = 0; total_ns = 0;
      samples = Rtlf_engine.Float_buffer.create ();
    }
  in
  (* One unmeasured run first, so that no measured run pays for growing
     the heap; the traced minus untraced difference is then the cost of
     tracing alone. *)
  Gc.compact ();
  let c0 = Host.calibrate () in
  (match inputs with
  | inp :: _ ->
    ignore (Simulator.run { inp.Workloads.cfg with Simulator.trace = false })
  | [] -> ());
  List.iteri
    (fun run inp ->
      try layer_run acc d ~run inp
      with e -> acc.failures <- (run, Printexc.to_string e) :: acc.failures)
    inputs;
  (* Host times (ns, ms) are scaled to the reference host like the
     end-to-end ones; shares and counts need no scaling. *)
  let f = Host.factor [ c0; Host.calibrate () ] in
  let decide_ns = Rtlf_engine.Float_buffer.to_array d.samples in
  let pct p =
    Option.value ~default:0.0 (Rtlf_engine.Stats.percentile_opt decide_ns ~p)
  in
  let decide_share = ratio d.total_ns acc.untraced_ns in
  let queue_share = ratio acc.queue_ns acc.untraced_ns in
  let per_obs ns = ratio ns acc.obs_traces /. 1e6 in
  let metrics =
    [
      ("workload.make_ms", "ms", median acc.make_ns /. 1e6);
      ("sim.ns_per_inv", "ns", ratio acc.untraced_ns acc.invocations);
      ("sim.minor_words_per_inv", "words",
       acc.minor_words /. float_of_int (max 1 acc.invocations));
      ("sim.other_share", "ratio", 1.0 -. decide_share -. queue_share);
      ("sim.trace_entries", "count", float_of_int acc.entries);
      ("sim.trace_ns_per_entry", "ns",
       ratio (acc.traced_ns - acc.untraced_ns) acc.entries);
      ("core.decide_calls", "count", float_of_int d.calls);
      ("core.decide_ns.p50", "ns", pct 50.0);
      ("core.decide_ns.p90", "ns", pct 90.0);
      ("core.decide_share", "ratio", decide_share);
      ("core.decide_ops_agree", "ratio", ratio d.agree d.calls);
      ("engine.queue_ops", "count", float_of_int acc.queue_ops);
      ("engine.queue_ns_per_op", "ns", ratio acc.queue_ns acc.queue_ops);
      ("engine.queue_share", "ratio", queue_share);
      ("model.retry_ratio", "ratio",
       ratio acc.retries (acc.accesses + acc.retries));
      ("model.block_ratio", "ratio", ratio acc.blocks acc.acquires);
      ("model.abort_ratio", "ratio", ratio acc.aborted acc.released);
      ("obs.attribution_ns_per_entry", "ns",
       ratio acc.attribution_ns acc.obs_entries);
      ("obs.blame_ms", "ms", per_obs acc.blame_ns);
      ("obs.metrics_json_ms", "ms", per_obs acc.metrics_ns);
      ("obs.chrome_trace_ms", "ms", per_obs acc.chrome_ns);
    ]
  in
  let scale (name, unit, v) =
    (name, unit, if unit = "ns" || unit = "ms" then v *. f else v)
  in
  (List.map scale metrics, List.rev acc.failures)
