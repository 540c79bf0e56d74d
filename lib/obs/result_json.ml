module Stats = Rtlf_engine.Stats
module Simulator = Rtlf_sim.Simulator
module Contention = Rtlf_sim.Contention
module Audit = Rtlf_sim.Audit
module Trace = Rtlf_sim.Trace

let summary (s : Stats.summary) =
  Json.Obj
    [
      ("n", Json.Int s.Stats.n);
      ("mean", Json.Float s.Stats.mean);
      ("stddev", Json.Float s.Stats.stddev);
      ("ci95", Json.Float s.Stats.ci95);
      ("min", Json.Float s.Stats.min);
      ("max", Json.Float s.Stats.max);
    ]

let histogram (h : Stats.histogram) =
  Json.Obj
    [
      ("n", Json.Int h.Stats.n);
      ("mean", Json.Float h.Stats.mean);
      ("min", Json.Float h.Stats.min);
      ("max", Json.Float h.Stats.max);
      ("p50", Json.Float h.Stats.p50);
      ("p90", Json.Float h.Stats.p90);
      ("p99", Json.Float h.Stats.p99);
      ("bucket_lo", Json.Float h.Stats.bucket_lo);
      ("bucket_width", Json.Float h.Stats.bucket_width);
      ( "buckets",
        Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.Stats.buckets))
      );
    ]

let contention (c : Contention.t) =
  Json.Obj
    [
      ("obj", Json.Int c.Contention.obj);
      ("acquires", Json.Int c.Contention.acquires);
      ("conflicts", Json.Int c.Contention.conflicts);
      ("retries", Json.Int c.Contention.retries);
      ("blocked_ns", Json.Int c.Contention.blocked_ns);
      ("max_queue_depth", Json.Int c.Contention.max_queue_depth);
    ]

let retry_tails (t : Stats.P2.tails) =
  Json.Obj
    [
      ("n", Json.Int t.Stats.P2.n);
      ("p50", Json.Float t.Stats.P2.p50);
      ("p90", Json.Float t.Stats.P2.p90);
      ("p99", Json.Float t.Stats.P2.p99);
      ("p999", Json.Float t.Stats.P2.p999);
    ]

let audit_violation (v : Audit.violation) =
  Json.Obj
    [
      ("jid", Json.Int v.Audit.jid);
      ("task_id", Json.Int v.Audit.task_id);
      ("retries", Json.Int v.Audit.retries);
      ("bound", Json.Int v.Audit.bound);
      ("time_ns", Json.Int v.Audit.time);
    ]

let audit (r : Audit.report) =
  Json.Obj
    [
      ("audited", Json.Bool r.Audit.audited);
      ("checked", Json.Int r.Audit.checked);
      ( "bounds",
        Json.List
          (Array.to_list (Array.map (fun b -> Json.Int b) r.Audit.bounds)) );
      ("violations", Json.Int (List.length r.Audit.violations));
      ( "violation_list",
        Json.List (List.map audit_violation r.Audit.violations) );
    ]

let task_result (tr : Simulator.task_result) =
  Json.Obj
    [
      ("task_id", Json.Int tr.Simulator.task_id);
      ("released", Json.Int tr.Simulator.released);
      ("completed", Json.Int tr.Simulator.completed);
      ("met", Json.Int tr.Simulator.met);
      ("aborted", Json.Int tr.Simulator.aborted);
      ("accrued", Json.Float tr.Simulator.accrued);
      ("max_possible", Json.Float tr.Simulator.max_possible);
      ("total_retries", Json.Int tr.Simulator.total_retries);
      ("max_retries", Json.Int tr.Simulator.max_retries);
      ("retry_tails", retry_tails tr.Simulator.retry_tails);
      ("sojourn_ns", summary tr.Simulator.sojourn);
    ]

(* Static-mode serving-path statistics: present only when the run used
   [Simulator.Static] (Null otherwise, so the schema is stable). *)
let static_stats (res : Simulator.result) =
  match res.Simulator.static with
  | None -> Json.Null
  | Some s ->
    let module S = Rtlf_core.Static_mode in
    Json.Obj
      [
        ("decides", Json.Int s.S.decides);
        ("pattern_hits", Json.Int s.S.pattern_hits);
        ("delegated", Json.Int s.S.delegated);
      ]

let result (res : Simulator.result) =
  Json.Obj
    [
      ("sync", Json.Str res.Simulator.sync_name);
      ("scheduler", Json.Str res.Simulator.sched_name);
      ("dispatch", Json.Str res.Simulator.dispatch_name);
      ("cores", Json.Int res.Simulator.cores);
      ("final_time_ns", Json.Int res.Simulator.final_time);
      ("released", Json.Int res.Simulator.released);
      ("completed", Json.Int res.Simulator.completed);
      ("met", Json.Int res.Simulator.met);
      ("aborted", Json.Int res.Simulator.aborted);
      ("in_flight", Json.Int res.Simulator.in_flight);
      ("accrued", Json.Float res.Simulator.accrued);
      ("max_possible", Json.Float res.Simulator.max_possible);
      ("aur", Json.Float res.Simulator.aur);
      ("cmr", Json.Float res.Simulator.cmr);
      ("retries_total", Json.Int res.Simulator.retries_total);
      ("preemptions", Json.Int res.Simulator.preemptions);
      ("blocked_events", Json.Int res.Simulator.blocked_events);
      ("migrations", Json.Int res.Simulator.migrations);
      ("sched_invocations", Json.Int res.Simulator.sched_invocations);
      ("sched_overhead_ns", Json.Int res.Simulator.sched_overhead);
      ("busy_ns", Json.Int res.Simulator.busy);
      ( "per_core_busy_ns",
        Json.List
          (Array.to_list
             (Array.map (fun b -> Json.Int b) res.Simulator.per_core_busy)) );
      ("access_ns", summary res.Simulator.access_samples);
      ("sojourn_ns", histogram (Simulator.sojourn_hist res));
      ("blocking_ns", histogram res.Simulator.blocking_hist);
      ("sched_cost_ns", histogram res.Simulator.sched_hist);
      ( "contention",
        Json.List
          (Array.to_list (Array.map contention res.Simulator.contention)) );
      ( "per_task",
        Json.List
          (Array.to_list (Array.map task_result res.Simulator.per_task)) );
      ("audit", audit res.Simulator.audit);
      ("static", static_stats res);
      ("trace_dropped", Json.Int (Trace.dropped res.Simulator.trace));
    ]

let to_string res = Json.to_string (result res)

(* --- metrics document --------------------------------------------------- *)

(* A compact, stable-schema companion to [result]: just the
   observability sections (audit, retry tails, contention, telemetry
   counter sites) without the bulky histograms — what CI and the bench
   harness archive per run. *)

(* Attribution totals ride along in the metrics doc when the run kept
   a complete trace; [Null] otherwise (tracing off, or ring-buffered
   with drops — attribution refuses partial histories). *)
let attribution_totals (res : Simulator.result) =
  let tr = res.Simulator.trace in
  if Trace.length tr = 0 then Json.Null
  else
    match Attribution.of_trace tr with
    | Error msg -> Json.Obj [ ("error", Json.Str msg) ]
    | Ok a ->
      let total f =
        List.fold_left (fun s j -> s + f j) 0 a.Attribution.jobs
      in
      Json.Obj
        [
          ("jobs", Json.Int (List.length a.Attribution.jobs));
          ("sojourn_ns", Json.Int (total (fun j -> j.Attribution.sojourn)));
          ("own_ns", Json.Int (total (fun j -> j.Attribution.own)));
          ("retry_ns", Json.Int (total (fun j -> j.Attribution.retry)));
          ("blocked_ns", Json.Int (total (fun j -> j.Attribution.blocked)));
          ( "preempted_ns",
            Json.Int (total (fun j -> j.Attribution.preempted)) );
          ("sched_ns", Json.Int (total (fun j -> j.Attribution.sched)));
          ( "abort_ns",
            Json.Int (total (fun j -> j.Attribution.abort_handler)) );
          ("idle_ns", Json.Int (total (fun j -> j.Attribution.idle)));
          ( "conservation_ok",
            Json.Bool (Result.is_ok (Attribution.check a)) );
        ]

let metrics (res : Simulator.result) =
  let tails =
    Array.to_list
      (Array.map
         (fun (tr : Simulator.task_result) ->
           let bound =
             let b = res.Simulator.audit.Audit.bounds in
             if tr.Simulator.task_id < Array.length b then
               b.(tr.Simulator.task_id)
             else 0
           in
           match retry_tails tr.Simulator.retry_tails with
           | Json.Obj fields ->
             Json.Obj
               (("task_id", Json.Int tr.Simulator.task_id)
               :: fields
               @ [
                   ("max_retries", Json.Int tr.Simulator.max_retries);
                   ("bound", Json.Int bound);
                 ])
           | j -> j)
         res.Simulator.per_task)
  in
  Json.Obj
    [
      ("schema", Json.Str "rtlf-metrics-v1");
      ("sync", Json.Str res.Simulator.sync_name);
      ("scheduler", Json.Str res.Simulator.sched_name);
      ("dispatch", Json.Str res.Simulator.dispatch_name);
      ("cores", Json.Int res.Simulator.cores);
      ("final_time_ns", Json.Int res.Simulator.final_time);
      ("released", Json.Int res.Simulator.released);
      ("completed", Json.Int res.Simulator.completed);
      ("aur", Json.Float res.Simulator.aur);
      ("cmr", Json.Float res.Simulator.cmr);
      ("retries_total", Json.Int res.Simulator.retries_total);
      ("migrations", Json.Int res.Simulator.migrations);
      ("audit", audit res.Simulator.audit);
      ("retry_tails", Json.List tails);
      ( "contention",
        Json.List
          (Array.to_list (Array.map contention res.Simulator.contention)) );
      ("attribution", attribution_totals res);
      ("trace_dropped", Json.Int (Trace.dropped res.Simulator.trace));
    ]

let metrics_to_string res = Json.to_string (metrics res)

let write_metrics ~path res =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (metrics_to_string res))
