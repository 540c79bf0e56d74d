(* rtlf — command-line driver for the lock-free RUA reproduction.

   Subcommands:
     rtlf list                   enumerate experiments
     rtlf run <name> [--fast]    run one experiment (fig8..fig14, thm2,
                    [--jobs N]   thm3, lem45, all); sweeps fan out
                                 across N domains, bit-identically
     rtlf sim [options]          run a single ad-hoc simulation
                                 (--json, --trace-out, --csv-out)
     rtlf trace [experiment]     record one traced run and export it
     rtlf explain [experiment]   attribute sojourn/utility loss to causes
                                 (--from-trace FILE, --job, --top,
                                 --blame-out; exit 5 on conservation
                                 violation)
     rtlf bound [options]        print Theorem 2 bounds for a workload *)

open Cmdliner

module Workload = Rtlf_workload.Workload
module Simulator = Rtlf_sim.Simulator
module Sync = Rtlf_sim.Sync
module Trace = Rtlf_sim.Trace
module Experiments = Rtlf_experiments
module Report = Rtlf_experiments.Report
module Obs = Rtlf_obs

let fmt = Format.std_formatter

(* --- shared argument definitions ------------------------------------- *)

let fast_flag =
  let doc = "Run a reduced sweep (fewer points, shorter horizons)." in
  Arg.(value & flag & info [ "fast" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for experiment sweeps: seeds and parameter points \
     fan out across $(docv) cores with bit-identical results \
     (1 = sequential). Defaults to the number of cores the runtime \
     recommends."
  in
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some j when j >= 1 -> Ok j
      | Some _ -> Error (`Msg "jobs must be >= 1")
      | None -> Error (`Msg (Printf.sprintf "invalid job count %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value
       & opt positive (Rtlf_engine.Pool.default_jobs ())
       & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let mode_of_fast fast =
  if fast then Experiments.Common.Fast else Experiments.Common.Full

let seed_arg =
  let doc = "PRNG seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let tasks_arg =
  let doc = "Number of tasks." in
  Arg.(value & opt int 10 & info [ "tasks" ] ~doc)

let objects_arg =
  let doc = "Number of shared objects (and accesses per job)." in
  Arg.(value & opt int 10 & info [ "objects" ] ~doc)

let load_arg =
  let doc = "Target approximate load AL = sum u_i/C_i." in
  Arg.(value & opt float 0.5 & info [ "load" ] ~doc)

let exec_arg =
  let doc = "Mean job execution time in microseconds." in
  Arg.(value & opt int 200 & info [ "exec-us" ] ~doc)

let sync_arg =
  let doc =
    "Sharing discipline: lock-based, lock-free, spin-ticket, spin-mcs \
     or ideal."
  in
  let syncs =
    [ ("lock-based", `Lock_based); ("lock-free", `Lock_free);
      ("spin-ticket", `Spin_ticket); ("spin-mcs", `Spin_mcs);
      ("ideal", `Ideal) ]
  in
  Arg.(value & opt (enum syncs) `Lock_free & info [ "sync" ] ~doc)

let sched_arg =
  let doc = "Scheduler: rua, edf or edf-pip." in
  let scheds =
    [ ("rua", Simulator.Rua); ("edf", Simulator.Edf);
      ("edf-pip", Simulator.Edf_pip) ]
  in
  Arg.(value & opt (enum scheds) Simulator.Rua & info [ "sched" ] ~doc)

let hetero_arg =
  let doc = "Use the heterogeneous TUF class (step+linear+parabolic)." in
  Arg.(value & flag & info [ "heterogeneous" ] ~doc)

let mode_arg =
  let doc =
    "Scheduling mode: dynamic (deciders interpret the task set every \
     invocation) or static (fresh synchronized releases served from an \
     ahead-of-time release-pattern table, every other decide delegated \
     to the dynamic decider). Decisions and ops charges are \
     bit-identical either way; static requires a lock-oblivious decider \
     (edf, or rua under lock-free/spin/ideal sync)."
  in
  let modes =
    [ ("dynamic", Simulator.Dynamic); ("static", Simulator.Static) ]
  in
  Arg.(value & opt (enum modes) Simulator.Dynamic & info [ "mode" ] ~doc)

let make_spec ~tasks ~objects ~load ~exec_us ~hetero ~seed =
  {
    Workload.default with
    Workload.n_tasks = tasks;
    n_objects = objects;
    accesses_per_job = objects;
    target_al = load;
    mean_exec = exec_us * 1000;
    tuf_class =
      (if hetero then Workload.Heterogeneous else Workload.Step_only);
    seed;
  }

(* A workload spec or simulator config that validation rejects (an
   [Invalid_argument] from [Workload.make] or [Simulator.run]) is a
   usage error: cmdliner reports it, exit 124. *)
let usage_guard f =
  match f () with
  | r -> r
  | exception Invalid_argument msg
    when String.starts_with ~prefix:"Workload:" msg
         || String.starts_with ~prefix:"Simulator:" msg ->
    `Error (false, msg)

let sync_of = function
  | `Lock_based -> Experiments.Common.lock_based
  | `Lock_free -> Experiments.Common.lock_free
  | `Spin_ticket -> Experiments.Common.spin_ticket
  | `Spin_mcs -> Experiments.Common.spin_mcs
  | `Ideal -> Sync.Ideal

let cores_arg =
  let doc = "Number of cores the simulated machine has." in
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some c when c >= 1 -> Ok c
      | Some _ -> Error (`Msg "cores must be >= 1")
      | None -> Error (`Msg (Printf.sprintf "invalid core count %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt positive 1 & info [ "cores" ] ~docv:"M" ~doc)

let dispatch_arg =
  let doc = "Multicore dispatch policy: global or partitioned." in
  let policies =
    [ ("global", Simulator.Global); ("partitioned", Simulator.Partitioned) ]
  in
  Arg.(value & opt (enum policies) Simulator.Global & info [ "dispatch" ] ~doc)

(* --- rtlf list -------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (name, _) -> Format.fprintf fmt "%s@." name)
      Experiments.All.experiments;
    Format.fprintf fmt "all@."
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments.")
    Term.(const run $ const ())

(* --- rtlf run <name> --------------------------------------------------- *)

let run_cmd =
  let name_arg =
    let doc = "Experiment name (see $(b,rtlf list))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let run_cores_arg =
    let doc =
      "Core count(s) to sweep for the $(b,smp) experiment (repeatable: \
       $(b,--cores 1 --cores 2 --cores 4)); defaults to 1, 2 and 4. \
       Other experiments are single-core and reject this flag."
    in
    Arg.(value & opt_all int [] & info [ "cores" ] ~docv:"M" ~doc)
  in
  let run name fast jobs cores =
    usage_guard @@ fun () ->
    let mode = mode_of_fast fast in
    if cores <> [] && name <> "smp" then
      `Error
        (false,
         Printf.sprintf "--cores applies only to the smp experiment, not %S"
           name)
    else if List.exists (fun m -> m < 1) cores then
      `Error (false, "--cores values must be >= 1")
    else if name = "all" then begin
      Experiments.All.run ~mode ~jobs fmt;
      `Ok ()
    end
    else if name = "smp" then begin
      let cores = if cores = [] then None else Some cores in
      Experiments.Smp.run ~mode ~jobs ?cores fmt;
      `Ok ()
    end
    else
      match List.assoc_opt name Experiments.All.experiments with
      | Some f ->
        f ?mode:(Some mode) ?jobs:(Some jobs) fmt;
        `Ok ()
      | None -> `Error (false, Printf.sprintf "unknown experiment %S" name)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a named experiment (or `all').")
    Term.(ret (const run $ name_arg $ fast_flag $ jobs_arg $ run_cores_arg))

(* --- rtlf sim ----------------------------------------------------------- *)

let json_flag =
  let doc = "Emit the full result as machine-readable JSON on stdout." in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_out_arg =
  let doc =
    "Write a Chrome trace-event / Perfetto JSON trace of the run to $(docv)."
  in
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE" ~doc)

let csv_out_arg =
  let doc = "Write the raw trace as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "Write the rtlf-metrics-v1 JSON document (Theorem-2 audit, per-task \
     P2 retry tails vs bounds, contention profile) to $(docv)."
  in
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let contention_csv_arg =
  let doc = "Write the per-object contention profile as CSV to $(docv)." in
  Arg.(value & opt (some string) None
       & info [ "contention-csv" ] ~docv:"FILE" ~doc)

let trace_capacity_arg =
  let doc =
    "Bound the in-memory trace to the newest $(docv) entries \
     (drop-oldest ring buffer); unbounded by default."
  in
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some c when c > 0 -> Ok c
      | Some _ -> Error (`Msg "trace capacity must be positive")
      | None -> Error (`Msg (Printf.sprintf "invalid capacity %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt (some positive) None
       & info [ "trace-capacity" ] ~docv:"N" ~doc)

(* Notices go to [dst] so --json keeps stdout machine-readable. *)
let export_trace ?(dst = fmt) ~trace_out ~csv_out trace =
  Option.iter
    (fun path ->
      Obs.Chrome_trace.write_file ~path trace;
      Format.fprintf dst "wrote Chrome trace to %s (open in ui.perfetto.dev)@."
        path)
    trace_out;
  Option.iter
    (fun path ->
      Obs.Csv_export.write_file ~path trace;
      Format.fprintf dst "wrote CSV trace to %s@." path)
    csv_out;
  (* The drop warning always goes to stderr: it qualifies every export
     above (the trace is incomplete), and stdout may be machine-read. *)
  let dropped = Trace.dropped trace in
  if dropped > 0 then
    Format.eprintf
      "warning: trace ring buffer dropped %d oldest entries — exported \
       trace is incomplete@."
      dropped

let print_observability res =
  Report.histogram fmt ~title:"sojourn" (Simulator.sojourn_hist res);
  if res.Simulator.blocking_hist.Rtlf_engine.Stats.n > 0 then
    Report.histogram fmt ~title:"blocking span"
      res.Simulator.blocking_hist;
  Report.histogram fmt ~title:"sched cost" res.Simulator.sched_hist;
  Format.fprintf fmt "contention profile:@.";
  Report.contention fmt res.Simulator.contention

let sim_cmd =
  let run tasks objects load exec_us sync sched sched_mode hetero seed fast
      json cores dispatch trace_out csv_out metrics_out contention_csv
      trace_capacity =
    usage_guard @@ fun () ->
    let spec = make_spec ~tasks ~objects ~load ~exec_us ~hetero ~seed in
    let task_list = Workload.make spec in
    let mode = mode_of_fast fast in
    let trace = Option.is_some trace_out || Option.is_some csv_out in
    let res =
      Experiments.Common.simulate ~mode ~sync:(sync_of sync) ~sched ~trace
        ?trace_capacity ~cores ~dispatch ~sched_mode ~seed task_list
    in
    if json then print_string (Obs.Result_json.to_string res)
    else begin
      Format.fprintf fmt "workload: %a@." Workload.pp_spec spec;
      Format.fprintf fmt
        "scheduler=%s sync=%s horizon=%dns@." res.Simulator.sched_name
        res.Simulator.sync_name res.Simulator.final_time;
      if res.Simulator.cores > 1 then
        Format.fprintf fmt "cores=%d dispatch=%s migrations=%d@."
          res.Simulator.cores res.Simulator.dispatch_name
          res.Simulator.migrations;
      Format.fprintf fmt
        "released=%d completed=%d aborted=%d in-flight=%d@."
        res.Simulator.released res.Simulator.completed res.Simulator.aborted
        res.Simulator.in_flight;
      Format.fprintf fmt "AUR=%.1f%% CMR=%.1f%%@."
        (100.0 *. res.Simulator.aur)
        (100.0 *. res.Simulator.cmr);
      Format.fprintf fmt
        "retries=%d preemptions=%d blockings=%d sched-invocations=%d@."
        res.Simulator.retries_total res.Simulator.preemptions
        res.Simulator.blocked_events res.Simulator.sched_invocations;
      Option.iter
        (fun (s : Rtlf_core.Static_mode.stats) ->
          Format.fprintf fmt "static mode: decides=%d pattern=%d delegated=%d@."
            s.Rtlf_core.Static_mode.decides
            s.Rtlf_core.Static_mode.pattern_hits
            s.Rtlf_core.Static_mode.delegated)
        res.Simulator.static;
      Format.fprintf fmt "mean access time: %a@."
        Rtlf_engine.Stats.pp_summary res.Simulator.access_samples;
      Format.fprintf fmt "%a@." Rtlf_sim.Audit.pp_report
        res.Simulator.audit;
      print_observability res
    end;
    let dst = if json then Format.err_formatter else fmt in
    Option.iter
      (fun path ->
        Obs.Result_json.write_metrics ~path res;
        Format.fprintf dst "wrote metrics JSON to %s@." path)
      metrics_out;
    Option.iter
      (fun path ->
        Obs.Csv_export.write_contention_file ~path res.Simulator.contention;
        Format.fprintf dst "wrote contention CSV to %s@." path)
      contention_csv;
    export_trace ~dst ~trace_out ~csv_out res.Simulator.trace;
    if not (Rtlf_sim.Audit.ok res.Simulator.audit) then begin
      (* Exit 4: Theorem-2 budget exceeded at runtime — distinct from
         the checker's counterexample code (3) so CI can tell a retry
         soundness bug from a linearizability one. *)
      Format.eprintf
        "rtlf sim: Theorem 2 retry budget violated (%d job(s))@."
        (List.length res.Simulator.audit.Rtlf_sim.Audit.violations);
      exit 4
    end;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Run one ad-hoc simulation and print a summary.")
    Term.(
      ret
        (const run $ tasks_arg $ objects_arg $ load_arg $ exec_arg $ sync_arg
         $ sched_arg $ mode_arg $ hetero_arg $ seed_arg $ fast_flag $ json_flag
         $ cores_arg $ dispatch_arg $ trace_out_arg $ csv_out_arg
         $ metrics_out_arg $ contention_csv_arg $ trace_capacity_arg))

(* --- rtlf trace ---------------------------------------------------------- *)

(* Representative single-run corner for each experiment: the load /
   TUF-class / discipline / scheduler point that figure or theorem is
   really about, so `rtlf trace fig12` shows the regime the figure
   measures. *)
let representative =
  [
    ("fig1", (0.7, false, `Lock_free, Simulator.Rua));
    ("fig8", (0.7, false, `Lock_free, Simulator.Rua));
    ("fig9", (0.9, false, `Lock_based, Simulator.Rua));
    ("fig10", (0.4, false, `Lock_free, Simulator.Rua));
    ("fig11", (0.4, true, `Lock_free, Simulator.Rua));
    ("fig12", (1.1, false, `Lock_free, Simulator.Rua));
    ("fig13", (1.1, true, `Lock_free, Simulator.Rua));
    ("fig14", (0.8, true, `Lock_free, Simulator.Rua));
    ("thm2", (1.0, false, `Lock_free, Simulator.Rua));
    ("thm3", (0.8, false, `Lock_based, Simulator.Rua));
    ("lem45", (0.4, false, `Lock_free, Simulator.Rua));
    ("ablation", (0.8, false, `Lock_free, Simulator.Edf));
    ("baselines", (0.7, false, `Lock_based, Simulator.Edf_pip));
  ]

(* The workload point a traced command runs: [name]'s representative
   corner, or [default] (the workload options) when no experiment is
   named. *)
let pick_point name default =
  match name with
  | None -> Ok default
  | Some n -> (
    match List.assoc_opt n representative with
    | Some r -> Ok r
    | None ->
      Error (Printf.sprintf "unknown experiment %S (see `rtlf list')" n))

(* One traced run at a quarter of the Fast horizon, shared by trace,
   explain and timeline; prints the workload and the result header. *)
let traced_run ~tasks ~objects ~exec_us ~seed ?trace_capacity
    (load, hetero, sync, sched) =
  let spec = make_spec ~tasks ~objects ~load ~exec_us ~hetero ~seed in
  let task_list = Workload.make spec in
  let horizon =
    Experiments.Common.horizon_for Experiments.Common.Fast task_list / 4
  in
  let res =
    Simulator.run
      (Simulator.config ~tasks:task_list ~sync:(sync_of sync) ~sched ~horizon
         ~seed ~sched_base:Experiments.Common.sched_base
         ~sched_per_op:Experiments.Common.sched_per_op ~trace:true
         ?trace_capacity ())
  in
  Format.fprintf fmt "workload: %a@." Workload.pp_spec spec;
  Format.fprintf fmt "scheduler=%s sync=%s AUR=%.1f%% CMR=%.1f%%@."
    res.Simulator.sched_name res.Simulator.sync_name
    (100.0 *. res.Simulator.aur)
    (100.0 *. res.Simulator.cmr);
  (task_list, res)

let trace_cmd =
  let name_arg =
    let doc =
      "Experiment whose representative configuration to trace (see \
       $(b,rtlf list)); defaults to the workload options."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let out_arg =
    let doc = "Chrome trace-event output file." in
    Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run name tasks objects load exec_us sync sched hetero seed out csv_out
      trace_capacity =
    usage_guard @@ fun () ->
    match pick_point name (load, hetero, sync, sched) with
    | Error msg -> `Error (false, msg)
    | Ok point ->
      let task_list, res =
        traced_run ~tasks ~objects ~exec_us ~seed ?trace_capacity point
      in
      let spans = Obs.Spans.of_trace res.Simulator.trace in
      Format.fprintf fmt
        "spans: running=%d blocking=%d retry=%d access=%d sched=%d@."
        (List.length spans.Obs.Spans.running)
        (List.length spans.Obs.Spans.blocking)
        (List.length spans.Obs.Spans.retries)
        (List.length spans.Obs.Spans.accesses)
        (List.length spans.Obs.Spans.sched);
      (match Obs.Attribution.of_trace ~tasks:task_list res.Simulator.trace with
      | Ok a -> Obs.Blame.render_summary fmt a
      | Error msg -> Format.fprintf fmt "attribution skipped: %s@." msg);
      print_observability res;
      export_trace ~trace_out:(Some out) ~csv_out res.Simulator.trace;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record one traced run (of an experiment's representative \
          configuration or an ad-hoc workload) and export it.")
    Term.(
      ret
        (const run $ name_arg $ tasks_arg $ objects_arg $ load_arg $ exec_arg
         $ sync_arg $ sched_arg $ hetero_arg $ seed_arg $ out_arg
         $ csv_out_arg $ trace_capacity_arg))

(* --- rtlf explain --------------------------------------------------------- *)

let explain_cmd =
  let name_arg =
    let doc =
      "Experiment whose representative configuration to attribute (see \
       $(b,rtlf list)); defaults to the workload options. Ignored with \
       $(b,--from-trace)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let from_trace_arg =
    let doc =
      "Attribute an already-recorded CSV trace (as written by $(b,rtlf sim \
       --csv-out)) instead of simulating. Utility losses are omitted — the \
       trace does not carry the TUFs."
    in
    Arg.(value & opt (some string) None
         & info [ "from-trace" ] ~docv:"FILE" ~doc)
  in
  let job_arg =
    let doc = "Drill into one job: its full decomposition and charges." in
    Arg.(value & opt (some int) None & info [ "job" ] ~docv:"JID" ~doc)
  in
  let task_arg2 =
    let doc = "Keep only blame edges where $(docv) is victim or culprit." in
    Arg.(value & opt (some int) None & info [ "task" ] ~docv:"TID" ~doc)
  in
  let top_arg =
    let doc = "Show only the $(docv) heaviest blame edges." in
    Arg.(value & opt (some int) None & info [ "top" ] ~docv:"K" ~doc)
  in
  let blame_out_arg =
    let doc = "Write the rtlf-blame-v1 JSON blame graph to $(docv)." in
    Arg.(value & opt (some string) None
         & info [ "blame-out" ] ~docv:"FILE" ~doc)
  in
  let run name tasks objects load exec_us sync sched hetero seed from_trace
      job task top blame_out =
    usage_guard @@ fun () ->
    let attributed =
      match from_trace with
      | Some path ->
        Result.bind (Obs.Csv_export.read_file ~path) (fun trace ->
            Obs.Attribution.of_trace trace)
      | None ->
        Result.bind (pick_point name (load, hetero, sync, sched)) (fun point ->
            let task_list, res =
              traced_run ~tasks ~objects ~exec_us ~seed point
            in
            Obs.Attribution.of_trace ~tasks:task_list res.Simulator.trace)
    in
    match attributed with
    | Error msg -> `Error (false, msg)
    | Ok a ->
      Obs.Blame.render_summary fmt a;
      let blame = Obs.Blame.of_attribution a in
      Format.fprintf fmt "@.blame graph (task -> task):@.";
      Obs.Blame.render ?top ?task fmt blame;
      (match job with
      | None -> ()
      | Some jid -> (
        Format.fprintf fmt "@.";
        match Obs.Attribution.find a ~jid with
        | Some j -> Obs.Blame.render_job fmt j
        | None -> Format.fprintf fmt "J%d: not resolved in this trace@." jid));
      Option.iter
        (fun path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc (Obs.Json.to_string (Obs.Blame.to_json blame)));
          Format.fprintf fmt "wrote blame JSON to %s@." path)
        blame_out;
      (match Obs.Attribution.check a with
      | Ok () -> `Ok ()
      | Error msg ->
        (* Exit 5: the attribution itself is inconsistent — distinct
           from the checker (3) and the Theorem-2 auditor (4). *)
        Format.eprintf
          "rtlf explain: conservation invariant violated@.%s@." msg;
        exit 5)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Attribute every job's sojourn and utility loss to named causes \
          (own execution, blocking, preemption, lock-free retries, \
          scheduler overhead, abort handlers) and print the task-level \
          blame graph.")
    Term.(
      ret
        (const run $ name_arg $ tasks_arg $ objects_arg $ load_arg $ exec_arg
         $ sync_arg $ sched_arg $ hetero_arg $ seed_arg $ from_trace_arg
         $ job_arg $ task_arg2 $ top_arg $ blame_out_arg))

(* --- rtlf timeline -------------------------------------------------------- *)

let timeline_cmd =
  let run tasks objects load exec_us sync sched hetero seed =
    usage_guard @@ fun () ->
    let _, res =
      traced_run ~tasks ~objects ~exec_us ~seed (load, hetero, sync, sched)
    in
    Format.fprintf fmt "@.";
    Format.pp_print_string fmt
      (Obs.Timeline.render
         (Obs.Timeline.build ~buckets:100 ~max_jobs:24 res.Simulator.trace));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Simulate briefly and render an ASCII execution timeline.")
    Term.(
      ret
        (const run $ tasks_arg $ objects_arg $ load_arg $ exec_arg $ sync_arg
         $ sched_arg $ hetero_arg $ seed_arg))

(* --- rtlf check ---------------------------------------------------------- *)

let check_cmd =
  let module C = Rtlf_check.Check in
  let module S = Rtlf_check.Scenario in
  let target_arg =
    let doc =
      "Structure to check, or $(b,all) for every real structure. Known \
       structures are listed on an unknown name; demo targets \
       (deliberately buggy) run by name only."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"STRUCTURE" ~doc)
  in
  let check_seed_arg =
    let doc = "Seed for random programs and random schedules." in
    Arg.(value & opt int C.default_seed & info [ "seed" ] ~doc)
  in
  let check_fast_flag =
    let doc = "Trim exploration budgets to CI scale." in
    Arg.(value & flag & info [ "fast" ] ~doc)
  in
  let out_arg =
    let doc = "Write the shrunk counterexample to $(docv) on failure." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let stats_flag =
    let doc =
      "Report shared-memory operation counters (gets/sets/CAS \
       attempts+failures/lock contention) per structure, accumulated \
       over its whole exploration."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let run target fast seed stats out =
    let module Shim = Rtlf_check.Shim in
    (* With --stats, run structures one at a time so the shim's
       process-wide counters can be reset around each exploration and
       attributed to it. *)
    let run_named name =
      Shim.Stats.reset ();
      Result.map
        (fun r -> (r, if stats then Some (Shim.Stats.read ()) else None))
        (C.run_one ~fast ~seed name)
    in
    let reports =
      if target = "all" then
        List.fold_left
          (fun acc name ->
            match (acc, run_named name) with
            | Ok rs, Ok r -> Ok (rs @ [ r ])
            | (Error _ as e), _ | _, (Error _ as e) -> e)
          (Ok []) (C.structures ())
      else Result.map (fun r -> [ r ]) (run_named target)
    in
    match reports with
    | Error msg -> `Error (false, msg)
    | Ok annotated ->
      let reports = List.map fst annotated in
      List.iter
        (fun (r, ops) ->
          Format.fprintf fmt "%a@." S.pp_report r;
          Option.iter
            (fun s -> Format.fprintf fmt "  %a@." Shim.Stats.pp s)
            ops)
        annotated;
      let failures =
        List.filter_map (fun r -> r.S.counterexample) reports
      in
      (match (failures, out) with
      | cx :: _, Some path ->
        let oc = open_out path in
        let f = Format.formatter_of_out_channel oc in
        Format.fprintf f "%a@." S.pp_counterexample cx;
        close_out oc;
        Format.fprintf fmt "wrote counterexample to %s@." path
      | _ -> ());
      if failures = [] then `Ok ()
      else begin
        (* Distinct exit code (not cmdliner's 124, which `timeout` also
           uses) so CI can tell "found a bug" from everything else. *)
        Format.eprintf "rtlf check: interleaving checker found a counterexample@.";
        exit 3
      end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check the lock-free structures: explore thread \
          interleavings deterministically and judge each execution \
          against a sequential specification (linearizability).")
    Term.(
      ret
        (const run $ target_arg $ check_fast_flag $ check_seed_arg
         $ stats_flag $ out_arg))

(* --- rtlf bound ---------------------------------------------------------- *)

let bound_cmd =
  let run tasks objects load exec_us hetero seed =
    usage_guard @@ fun () ->
    let spec = make_spec ~tasks ~objects ~load ~exec_us ~hetero ~seed in
    let task_list = Workload.make spec in
    Format.fprintf fmt "Theorem 2 retry bounds (%a)@." Workload.pp_spec spec;
    List.iter
      (fun t ->
        let i = t.Rtlf_model.Task.id in
        Format.fprintf fmt "  task %d: x_i=%d bound=%d@." i
          (Rtlf_core.Retry_bound.x_i ~tasks:task_list ~i)
          (Rtlf_core.Retry_bound.bound ~tasks:task_list ~i))
      task_list;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "bound" ~doc:"Print Theorem 2 retry bounds for a workload.")
    Term.(
      ret
        (const run $ tasks_arg $ objects_arg $ load_arg $ exec_arg $ hetero_arg
         $ seed_arg))

let main =
  let doc = "Lock-free synchronization for dynamic embedded real-time systems" in
  Cmd.group
    (Cmd.info "rtlf" ~version:"1.0.0" ~doc)
    [ list_cmd; run_cmd; sim_cmd; trace_cmd; explain_cmd; timeline_cmd;
      bound_cmd; check_cmd ]

let () = exit (Cmd.eval main)
