(* Benchmark harness.

   Two halves:

   1. Bechamel micro-benchmarks — one [Test.make] per evaluation
      artifact: the simulation kernel behind each figure (FIG8..FIG14),
      the scheduler-decision cost underlying Figure 9 and §3.6's
      complexity claims, and the native lock-free vs lock-based
      structures (the real-hardware analogue of Figure 8's r vs s),
      plus a multi-domain contention sweep.

   2. The full experiment suite (Figures 8-14, Theorem 2/3, Lemmas
      4/5) printed as the paper's rows/series. *)

open Bechamel

module Job = Rtlf_model.Job
module Resource = Rtlf_model.Resource
module Lock_manager = Rtlf_model.Lock_manager
module Scheduler = Rtlf_core.Scheduler
module Simulator = Rtlf_sim.Simulator
module Workload = Rtlf_workload.Workload
module E = Rtlf_experiments

let fmt = Format.std_formatter

(* --- native structure kernels (Figure 8, real hardware) -------------- *)

let bench_ms_queue () =
  let q = Rtlf_lockfree.Ms_queue.create () in
  Staged.stage (fun () ->
      Rtlf_lockfree.Ms_queue.enqueue q 1;
      ignore (Rtlf_lockfree.Ms_queue.dequeue q))

let bench_lock_queue () =
  let q = Rtlf_lockfree.Lock_queue.create () in
  Staged.stage (fun () ->
      Rtlf_lockfree.Lock_queue.enqueue q 1;
      ignore (Rtlf_lockfree.Lock_queue.dequeue q))

let bench_treiber () =
  let st = Rtlf_lockfree.Treiber_stack.create () in
  Staged.stage (fun () ->
      Rtlf_lockfree.Treiber_stack.push st 1;
      ignore (Rtlf_lockfree.Treiber_stack.pop st))

let bench_lock_stack () =
  let st = Rtlf_lockfree.Lock_stack.create () in
  Staged.stage (fun () ->
      Rtlf_lockfree.Lock_stack.push st 1;
      ignore (Rtlf_lockfree.Lock_stack.pop st))

(* --- scheduler decision kernels (§3.6, Figure 9) ---------------------- *)

(* A frozen scheduling scene: n live jobs; the lock-based variant also
   sees a 5-deep dependency chain through the lock table. *)
let scene ~n ~with_locks =
  let tasks = Workload.make { Workload.default with Workload.n_tasks = n } in
  let jobs =
    List.mapi (fun i t -> Job.create ~task:t ~jid:i ~arrival:0) tasks
  in
  let objects = Resource.create ~n:10 in
  let locks = Lock_manager.create ~objects in
  if with_locks then
    List.iteri
      (fun i job ->
        if i < 5 then
          ignore (Lock_manager.request locks ~jid:job.Job.jid ~obj:i);
        if i >= 1 && i <= 5 then begin
          match Lock_manager.request locks ~jid:job.Job.jid ~obj:(i - 1) with
          | Lock_manager.Granted -> ()
          | Lock_manager.Blocked_on _ -> job.Job.state <- Job.Blocked (i - 1)
        end)
      jobs;
  (jobs, locks)

let remaining job = Job.remaining_nominal job

let bench_decide ~sched ~n =
  let with_locks = sched = `Lock_based in
  let jobs, locks = scene ~n ~with_locks in
  let jobs = Array.of_list jobs in
  let scheduler =
    match sched with
    | `Lock_based -> Rtlf_core.Rua_lock_based.make ~locks
    | `Lock_free -> Rtlf_core.Rua_lock_free.make ()
    | `Edf -> Rtlf_core.Edf.make ()
    | `Edf_pip -> Rtlf_core.Edf_pip.make ~locks
  in
  Staged.stage (fun () ->
      ignore (scheduler.Scheduler.decide ~now:0 ~jobs ~remaining))

(* --- per-figure simulation kernels ------------------------------------ *)

(* One short simulation representative of each figure's configuration;
   benchmarked to track the cost of regenerating each artifact. *)
let fig_sim ~sync ~al ~tuf_class ~n_objects ~mean_exec =
  let spec =
    {
      Workload.default with
      Workload.n_objects;
      accesses_per_job = n_objects;
      target_al = al;
      tuf_class;
      mean_exec;
      seed = 11;
    }
  in
  let tasks = Workload.make spec in
  let horizon = 20 * mean_exec * spec.Workload.n_tasks in
  Staged.stage (fun () ->
      ignore
        (Simulator.run
           (Simulator.config ~tasks ~sync ~horizon ~seed:3
              ~sched_base:E.Common.sched_base
              ~sched_per_op:E.Common.sched_per_op ())))

(* Each group is a list of (name, make-staged-fn) pairs so --filter can
   drop a kernel before its scene is ever built; [pick] applies the
   predicate and stages only the survivors. *)
let pick ~keep entries =
  List.filter_map
    (fun (name, mk) -> if keep name then Some (name, mk ()) else None)
    entries

let sim_tests ~keep () =
  pick ~keep
    [
      ( "FIG8-kernel (lock-based access times)",
        fun () ->
          fig_sim ~sync:E.Common.lock_based ~al:0.5
            ~tuf_class:Workload.Step_only ~n_objects:10 ~mean_exec:200_000 );
      ( "FIG9-kernel (CML probe, lock-free)",
        fun () ->
          fig_sim ~sync:E.Common.lock_free ~al:0.8
            ~tuf_class:Workload.Step_only ~n_objects:10 ~mean_exec:30_000 );
      ( "FIG10-kernel (underload, step)",
        fun () ->
          fig_sim ~sync:E.Common.lock_free ~al:0.4
            ~tuf_class:Workload.Step_only ~n_objects:10 ~mean_exec:100_000 );
      ( "FIG11-kernel (underload, heterogeneous)",
        fun () ->
          fig_sim ~sync:E.Common.lock_free ~al:0.4
            ~tuf_class:Workload.Heterogeneous ~n_objects:10
            ~mean_exec:100_000 );
      ( "FIG12-kernel (overload, step)",
        fun () ->
          fig_sim ~sync:E.Common.lock_based ~al:1.1
            ~tuf_class:Workload.Step_only ~n_objects:10 ~mean_exec:100_000 );
      ( "FIG13-kernel (overload, heterogeneous)",
        fun () ->
          fig_sim ~sync:E.Common.lock_based ~al:1.1
            ~tuf_class:Workload.Heterogeneous ~n_objects:10
            ~mean_exec:100_000 );
      ( "FIG14-kernel (readers, heterogeneous)",
        fun () ->
          fig_sim ~sync:E.Common.lock_based ~al:0.6
            ~tuf_class:Workload.Heterogeneous ~n_objects:6
            ~mean_exec:100_000 );
    ]

let bench_ring () =
  let q = Rtlf_lockfree.Ring_buffer.create ~capacity:64 in
  Staged.stage (fun () ->
      ignore (Rtlf_lockfree.Ring_buffer.try_push q 1);
      ignore (Rtlf_lockfree.Ring_buffer.try_pop q))

let bench_lf_set () =
  let s = Rtlf_lockfree.Lf_set.create () in
  let k = ref 0 in
  Staged.stage (fun () ->
      k := (!k + 1) land 1023;
      ignore (Rtlf_lockfree.Lf_set.add s !k);
      ignore (Rtlf_lockfree.Lf_set.remove s !k))

let bench_snapshot () =
  let snap = Rtlf_lockfree.Snapshot.create ~n:8 ~init:0 in
  Staged.stage (fun () ->
      Rtlf_lockfree.Snapshot.update snap ~i:3 1;
      ignore (Rtlf_lockfree.Snapshot.scan snap))

let bench_nbw () =
  let reg = Rtlf_lockfree.Nbw_register.create 0 in
  Staged.stage (fun () ->
      Rtlf_lockfree.Nbw_register.write reg 1;
      ignore (Rtlf_lockfree.Nbw_register.read reg))

let bench_four_slot () =
  let reg = Rtlf_lockfree.Four_slot.create 0 in
  Staged.stage (fun () ->
      Rtlf_lockfree.Four_slot.write reg 1;
      ignore (Rtlf_lockfree.Four_slot.read reg))

let native_tests ~keep () =
  pick ~keep
    [
      ("ms-queue enq+deq (lock-free s)", bench_ms_queue);
      ("mutex-queue enq+deq (lock-based r)", bench_lock_queue);
      ("treiber push+pop (lock-free s)", bench_treiber);
      ("mutex-stack push+pop (lock-based r)", bench_lock_stack);
      ("nbw-register write+read (wait-free writer)", bench_nbw);
      ("four-slot write+read (fully wait-free)", bench_four_slot);
      ("mpmc-ring push+pop (lock-free bounded)", bench_ring);
      ("harris-set add+remove (lock-free ordered)", bench_lf_set);
      ("snapshot update+scan n=8 (lock-free cut)", bench_snapshot);
    ]

let scheduler_tests ~keep () =
  let variants n =
    pick ~keep
      [
        ( Printf.sprintf "rua-lock-based decide n=%d" n,
          fun () -> bench_decide ~sched:`Lock_based ~n );
        ( Printf.sprintf "rua-lock-free decide n=%d" n,
          fun () -> bench_decide ~sched:`Lock_free ~n );
        ( Printf.sprintf "edf decide n=%d" n,
          fun () -> bench_decide ~sched:`Edf ~n );
        ( Printf.sprintf "edf-pip decide n=%d" n,
          fun () -> bench_decide ~sched:`Edf_pip ~n );
      ]
  in
  List.concat_map variants [ 8; 32; 64 ]

(* --- scale kernels (10^3..10^5 live jobs / pending events) ------------- *)

(* The O(n^2)-and-worse deciders (edf-pip, rua-lock-based) are
   intentionally absent here: at n=10^5 a single decision would take
   minutes. The scale story is the O(n log n) pair plus the event
   queue. *)

(* 64 anchors the sweep to the classic bechamel kernels' size. *)
let scale_sizes = [ 64; 1_000; 10_000; 100_000 ]

let bench_decide_scale ~sched ~path jobs =
  let scheduler =
    match sched with
    | `Lock_free -> Rtlf_core.Rua_lock_free.make ()
    | `Edf -> Rtlf_core.Edf.make ()
  in
  match path with
  | `Rebuild ->
    (* Toggle one job's runnability between iterations so neither
       decider's cache can hit: every run pays the full rebuild. *)
    let j0 = jobs.(0) in
    Staged.stage (fun () ->
        (j0.Job.state <-
           (match j0.Job.state with
           | Job.Ready -> Job.Blocked 0
           | _ -> Job.Ready));
        ignore (scheduler.Scheduler.decide ~now:0 ~jobs ~remaining))
  | `Cached ->
    (* Steady state: after the first call every decide revalidates the
       cache (O(n)) and returns the stored decision. *)
    Staged.stage (fun () ->
        ignore (scheduler.Scheduler.decide ~now:0 ~jobs ~remaining))

(* Hold pattern: [n] pending events; each op pops the earliest and
   re-inserts it a pseudo-random delay later, keeping density constant
   while the clock sweeps forward. *)
let bench_queue_hold ~n =
  let lcg = ref 0x2545F491 in
  let delta () =
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    1 + (!lcg mod (4 * n))
  in
  let q = Rtlf_engine.Event_queue.create () in
  for _ = 1 to n do
    Rtlf_engine.Event_queue.add q ~time:(delta ()) ()
  done;
  Staged.stage (fun () ->
      let t, () = Rtlf_engine.Event_queue.pop_exn q in
      Rtlf_engine.Event_queue.add q ~time:(t + delta ()) ())

(* Built on demand (--scale): the 10^5-job scenes are too expensive to
   construct when the group is not going to run — and [--filter] drops
   a kernel before its scene is built, for the same reason. Each
   kernel is (name, batch, fn); batch sizes keep the timer reads off
   the hot path for the sub-microsecond queue kernels. *)
let scale_kernels ~keep ~max_n () =
  List.concat_map
    (fun n ->
      if n > max_n then []
      else begin
        (* One scene per kernel: the rebuild kernels toggle job state
           between iterations, which would defeat the cached kernel's
           cache if they shared an array. *)
        let fresh_jobs () =
          let jobs, _locks = scene ~n ~with_locks:false in
          Array.of_list jobs
        in
        let entry name batch mk =
          if keep name then [ (name, batch, mk ()) ] else []
        in
        List.concat
          [
            entry
              (Printf.sprintf "rua-lock-free decide n=%d rebuild" n)
              1
              (fun () ->
                Staged.unstage
                  (bench_decide_scale ~sched:`Lock_free ~path:`Rebuild
                     (fresh_jobs ())));
            entry
              (Printf.sprintf "rua-lock-free decide n=%d cached" n)
              1
              (fun () ->
                Staged.unstage
                  (bench_decide_scale ~sched:`Lock_free ~path:`Cached
                     (fresh_jobs ())));
            entry
              (Printf.sprintf "edf decide n=%d rebuild" n)
              1
              (fun () ->
                Staged.unstage
                  (bench_decide_scale ~sched:`Edf ~path:`Rebuild
                     (fresh_jobs ())));
            entry
              (Printf.sprintf "event-queue hold n=%d heap" n)
              256
              (fun () -> Staged.unstage (bench_queue_hold ~n));
          ]
      end)
    scale_sizes

(* The scale kernels span multi-ms (the 10^5-job rebuild) down to
   ~100 ns (queue hold): a fixed-batch wall-clock loop measures both
   extremes honestly, where per-sample OLS over GC-stabilized
   single-run samples buries the cheap kernels in cold-cache noise. *)
let run_scale_group ~quota ~name kernels =
  if kernels = [] then []
  else begin
  E.Report.section fmt name;
  let rows =
    List.map
      (fun (kname, batch, f) ->
        (* Pay off the previous kernel's GC debt (a 10^5-job rebuild
           leaves a lot of garbage) so it is not billed to this one,
           then warm up: populate decision caches, settle queue
           state. *)
        Gc.compact ();
        f ();
        let t0 = Unix.gettimeofday () in
        let iters = ref 0 in
        while Unix.gettimeofday () -. t0 < quota do
          for _ = 1 to batch do
            f ()
          done;
          iters := !iters + batch
        done;
        let ns =
          (Unix.gettimeofday () -. t0) /. float_of_int !iters *. 1e9
        in
        (kname, ns))
      kernels
  in
  E.Report.table fmt
    ~header:[ "benchmark"; "ns/op" ]
    ~rows:
      (List.map (fun (n, ns) -> [ n; Printf.sprintf "%.1f" ns ]) rows);
  rows
  end

(* --- per-core-count dispatcher kernels (SMP) -------------------------- *)

(* What one dispatcher pass costs at m cores over n live jobs, through
   the public Scheduler API the dispatcher itself uses: global dispatch
   runs one decide over all n jobs (the selection is then spread across
   cores); partitioned dispatch runs m decides over n/m-job partitions,
   each with its own scheduler instance exactly as the simulator keeps
   them (deciders carry caches). *)
let smp_cores = [ 1; 2; 4 ]

let smp_kernels ~keep () =
  let n = 64 in
  List.concat_map
    (fun m ->
      let entry name batch mk =
        if keep name then [ (name, batch, mk ()) ] else []
      in
      let global () =
        let jobs, _locks = scene ~n ~with_locks:false in
        let jobs = Array.of_list jobs in
        let sched = Rtlf_core.Rua_lock_free.make () in
        fun () -> ignore (sched.Scheduler.decide ~now:0 ~jobs ~remaining)
      in
      let partitioned () =
        let per_core =
          Array.init m (fun _ ->
              let jobs, _locks = scene ~n:(max 1 (n / m)) ~with_locks:false in
              (Array.of_list jobs, Rtlf_core.Rua_lock_free.make ()))
        in
        fun () ->
          Array.iter
            (fun (jobs, sched) ->
              ignore (sched.Scheduler.decide ~now:0 ~jobs ~remaining))
            per_core
      in
      List.concat
        [
          entry (Printf.sprintf "smp decide n=%d m=%d global" n m) 1 global;
          entry
            (Printf.sprintf "smp decide n=%d m=%d partitioned" n m)
            1 partitioned;
        ])
    smp_cores

(* Pre-arena decision-kernel costs, measured on this harness (bechamel
   OLS, 0.5 s quota) immediately before the scratch-arena rewrite of
   the decision path. BENCH_*.json reports measured/baseline speedups
   against these figures; they are the "before" column of the README's
   performance table. *)
let decide_baseline_ns =
  [
    ("rua-lock-based decide n=8", 8921.8);
    ("rua-lock-based decide n=32", 44854.7);
    ("rua-lock-based decide n=64", 147706.4);
    ("rua-lock-free decide n=8", 3484.5);
    ("rua-lock-free decide n=32", 36672.3);
    ("rua-lock-free decide n=64", 130018.7);
    ("edf decide n=8", 665.3);
    ("edf decide n=32", 4299.2);
    ("edf decide n=64", 10003.3);
    ("edf-pip decide n=8", 1337.2);
    ("edf-pip decide n=32", 9865.8);
    ("edf-pip decide n=64", 31591.6);
  ]

(* --- bechamel driver --------------------------------------------------- *)

(* Runs a bechamel group from (name, staged) pairs, prints the human
   table and returns the [(test_name, ns_per_op)] rows for
   machine-readable export. A group --filter emptied is skipped
   entirely. *)
let run_group ?(quota = 0.25) ~name pairs =
  if pairs = [] then []
  else begin
  let tests = List.map (fun (n, fn) -> Test.make ~name:n fn) pairs in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ()
  in
  let grouped = Test.make_grouped ~name tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun test_name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some [ x ] -> x
        | Some _ | None -> nan
      in
      rows := (test_name, estimate) :: !rows)
    results;
  let rows = List.sort compare !rows in
  E.Report.section fmt name;
  E.Report.table fmt
    ~header:[ "benchmark"; "ns/op" ]
    ~rows:
      (List.map
         (fun (test_name, ns) -> [ test_name; Printf.sprintf "%.1f" ns ])
         rows);
  rows
  end

(* --- machine-readable bench record (BENCH_<label>.json) ---------------- *)

(* Schema documented in DESIGN.md: the decide-kernel rows carry the
   tracked pre-arena baseline and the measured/baseline speedup, so a
   regression is visible from the artifact alone.

   With [--append] the file becomes an append-only trajectory
   [{"label", "schema": "rtlf-bench-trajectory-v1", "runs": [...]}];
   each invocation parses the existing document and appends one run
   object. A legacy single-snapshot file is wrapped as the
   trajectory's first run, so history survives the migration.

   [run_label] names the appended run inside the trajectory (the file
   name stays keyed on [label]); appending a run label the trajectory
   already contains is refused — exit 2, file untouched — so a re-run
   of a recording script cannot silently duplicate a data point. *)
let emit_json ~label ~run_label ~out_dir ~quota ~smoke ~append ~wall_s rows =
  let module J = Rtlf_obs.Json in
  let num x : J.t = if Float.is_finite x then J.Float x else J.Null in
  let kernels =
    (* Every measured row is exported; rows with a tracked pre-arena
       baseline additionally carry the baseline and the speedup against
       it, the rest (e.g. the scale kernels) carry nulls. *)
    List.map
      (fun (name, ns) ->
        let short =
          match String.rindex_opt name '/' with
          | Some i -> String.sub name (i + 1) (String.length name - i - 1)
          | None -> name
        in
        let baseline, speedup =
          match List.assoc_opt short decide_baseline_ns with
          | Some base -> (J.Float base, num (base /. ns))
          | None -> (J.Null, J.Null)
        in
        J.Obj
          [
            ("name", J.Str short);
            ("ns_per_op", num ns);
            ("baseline_ns_per_op", baseline);
            ("speedup", speedup);
          ])
      rows
  in
  let run_doc =
    J.Obj
      [
        ("label", J.Str run_label);
        ("smoke", J.Bool smoke);
        ("quota_s", J.Float quota);
        ("time_unix", J.Float (Unix.time ()));
        ("kernels", J.List kernels);
        ("suite_wall_clock_s", num wall_s);
      ]
  in
  let path = Filename.concat out_dir (Printf.sprintf "BENCH_%s.json" label) in
  let doc =
    if not append then run_doc
    else begin
      let prior =
        if not (Sys.file_exists path) then None
        else
          let ic = open_in_bin path in
          let s =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          J.of_string_opt s
      in
      let prior_runs =
        match prior with
        | Some (J.Obj fields as old) -> (
          match List.assoc_opt "runs" fields with
          | Some (J.List runs) -> runs
          | Some _ | None -> [ old ])
        | Some _ | None -> []
      in
      let labelled l = function
        | J.Obj fields -> List.assoc_opt "label" fields = Some (J.Str l)
        | _ -> false
      in
      if List.exists (labelled run_label) prior_runs then begin
        Format.eprintf
          "bench: refusing to append: run label %S already present in %s \
           (pass --run-label to name this run)@."
          run_label path;
        exit 2
      end;
      J.Obj
        [
          ("label", J.Str label);
          ("schema", J.Str "rtlf-bench-trajectory-v1");
          ("runs", J.List (prior_runs @ [ run_doc ]));
        ]
    end
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_string oc "\n";
  close_out oc;
  Format.fprintf fmt "wrote %s%s@." path
    (if append then " (appended)" else "")

(* --- attribution pass (rtlf explain hot path) -------------------------- *)

(* One traced run, attributed repeatedly: the cost of the causal
   sweep itself per call (and, via the event count printed alongside,
   per trace event) — the self-overhead figure the blame experiment
   quotes. *)
let attribution_tests ~keep () =
  (* The traced run feeding both kernels is only worth producing if at
     least one of them survives --filter. *)
  if not (keep "attribution sweep" || keep "blame graph fold") then []
  else begin
    let tasks =
      Workload.make
        {
          Workload.default with
          Workload.n_tasks = 8;
          n_objects = 2;
          accesses_per_job = 6;
          burst = 3;
          seed = 11;
        }
    in
    let res =
      E.Common.simulate ~mode:E.Common.Fast ~trace:true ~seed:7 tasks
    in
    let trace = res.Simulator.trace in
    let events = List.length (Rtlf_sim.Trace.entries trace) in
    Format.fprintf fmt "attribution kernel input: %d trace events@." events;
    pick ~keep
      [
        ( "attribution sweep",
          fun () ->
            Staged.stage (fun () ->
                match Rtlf_obs.Attribution.of_trace ~tasks trace with
                | Ok a -> ignore (Sys.opaque_identity a)
                | Error msg -> failwith msg) );
        ( "blame graph fold",
          fun () ->
            let a =
              match Rtlf_obs.Attribution.of_trace ~tasks trace with
              | Ok a -> a
              | Error msg -> failwith msg
            in
            Staged.stage (fun () ->
                ignore
                  (Sys.opaque_identity (Rtlf_obs.Blame.of_attribution a))) );
      ]
  end

(* --- CAS retry profile (counting-instrumented structures) -------------- *)

(* Rebuilds three representative structures through their [Make]
   functors with the telemetry counting layers and stresses each on
   real domains: the table shows the shared-memory work Figure 8's
   native numbers are made of — CAS failure rates for the lock-free
   pair, acquire/conflict counts for the mutex baseline, and backoff
   spins burned on contention. *)
let retry_profile () =
  let module T = Rtlf_obs.Telemetry in
  let module A = Rtlf_lockfree.Atomic_intf in
  let domains = 2 and ops = 20_000 in
  E.Report.section fmt
    (Printf.sprintf
       "CAS retry profile (counting-instrumented, %d domains x %d ops)"
       domains ops);
  let backoff = T.install_backoff_observer () in
  let profile name site (report : Rtlf_lockfree.Stress.report) =
    let s = T.snapshot site in
    let spins = T.count backoff T.Backoff_spins in
    [
      name;
      string_of_int (s.T.cas_attempts);
      string_of_int (s.T.cas_failures);
      Printf.sprintf "%.2f%%" (100.0 *. T.cas_failure_rate s);
      string_of_int s.T.lock_acquires;
      string_of_int s.T.lock_conflicts;
      string_of_int spins;
      Printf.sprintf "%.2f" (Rtlf_lockfree.Stress.throughput_mops report);
      string_of_bool (Rtlf_lockfree.Stress.conserved report);
    ]
  in
  let msq_site = T.register "bench:ms_queue" in
  let module Msq =
    Rtlf_lockfree.Ms_queue.Make
      (T.Counting_atomic
         (A.Stdlib_atomic)
         (struct
           let site = msq_site
         end))
  in
  let treiber_site = T.register "bench:treiber_stack" in
  let module Treiber =
    Rtlf_lockfree.Treiber_stack.Make
      (T.Counting_atomic
         (A.Stdlib_atomic)
         (struct
           let site = treiber_site
         end))
  in
  let lockq_site = T.register "bench:lock_queue" in
  let module Lockq =
    Rtlf_lockfree.Lock_queue.Make
      (T.Counting_mutex (struct
        let site = lockq_site
      end))
  in
  let rows =
    [
      (let q = Msq.create () in
       T.reset backoff;
       let r =
         Rtlf_lockfree.Stress.run ~domains ~ops
           ~push:(fun v -> Msq.enqueue q v)
           ~pop:(fun () -> Msq.dequeue q)
           ~drain:(fun () -> Msq.to_list q)
       in
       profile "ms-queue" msq_site r);
      (let st = Treiber.create () in
       T.reset backoff;
       let r =
         Rtlf_lockfree.Stress.run ~domains ~ops
           ~push:(fun v -> Treiber.push st v)
           ~pop:(fun () -> Treiber.pop st)
           ~drain:(fun () -> Treiber.to_list st)
       in
       profile "treiber-stack" treiber_site r);
      (let q = Lockq.create () in
       T.reset backoff;
       let r =
         Rtlf_lockfree.Stress.run ~domains ~ops
           ~push:(fun v -> Lockq.enqueue q v)
           ~pop:(fun () -> Lockq.dequeue q)
           ~drain:(fun () -> Lockq.to_list q)
       in
       profile "mutex-queue" lockq_site r);
    ]
  in
  T.uninstall_backoff_observer ();
  E.Report.table fmt
    ~header:
      [ "structure"; "cas"; "cas-fail"; "fail%"; "lock-acq"; "lock-conf";
        "spins"; "Mops/s"; "conserved" ]
    ~rows

(* --- native multi-domain contention (Figure 8 on real silicon) -------- *)

let contention_sweep () =
  E.Report.section fmt
    "Native contention: mutex queue vs Michael-Scott queue (real domains)";
  let point domains =
    let ops = 50_000 in
    let lf = Rtlf_lockfree.Ms_queue.create () in
    let lf_report =
      Rtlf_lockfree.Stress.run ~domains ~ops
        ~push:(fun v -> Rtlf_lockfree.Ms_queue.enqueue lf v)
        ~pop:(fun () -> Rtlf_lockfree.Ms_queue.dequeue lf)
        ~drain:(fun () -> Rtlf_lockfree.Ms_queue.to_list lf)
    in
    let lb = Rtlf_lockfree.Lock_queue.create () in
    let lb_report =
      Rtlf_lockfree.Stress.run ~domains ~ops
        ~push:(fun v -> Rtlf_lockfree.Lock_queue.enqueue lb v)
        ~pop:(fun () -> Rtlf_lockfree.Lock_queue.dequeue lb)
        ~drain:(fun () -> Rtlf_lockfree.Lock_queue.to_list lb)
    in
    [
      [
        string_of_int domains;
        "ms-queue";
        Printf.sprintf "%.2f" (Rtlf_lockfree.Stress.throughput_mops lf_report);
        string_of_int (Rtlf_lockfree.Ms_queue.retries lf);
        string_of_bool (Rtlf_lockfree.Stress.conserved lf_report);
      ];
      [
        string_of_int domains;
        "mutex-queue";
        Printf.sprintf "%.2f" (Rtlf_lockfree.Stress.throughput_mops lb_report);
        "-";
        string_of_bool (Rtlf_lockfree.Stress.conserved lb_report);
      ];
    ]
  in
  E.Report.table fmt
    ~header:[ "domains"; "structure"; "Mops/s"; "CAS retries"; "conserved" ]
    ~rows:(List.concat_map point [ 1; 2; 4 ])

(* --- parallel harness: jobs=1 vs jobs=N wall-clock -------------------- *)

(* Times one full experiment sweep (Figure 8: the seed × object-count
   grid) sequentially and through the domain pool. The speedup column
   is the acceptance measure for the parallel engine; the sweeps
   produce bit-identical rows by construction, which `dune runtest`
   asserts separately. *)
let parallel_sweep ~mode () =
  let jobs = Rtlf_engine.Pool.default_jobs () in
  E.Report.section fmt
    (Printf.sprintf
       "Parallel harness: Figure 8 sweep wall-clock, jobs=1 vs jobs=%d" jobs);
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let seq = time (fun () -> E.Fig8.compute ~mode ~jobs:1 ()) in
  let par = time (fun () -> E.Fig8.compute ~mode ~jobs ()) in
  E.Report.table fmt
    ~header:[ "jobs"; "wall-clock (s)"; "speedup" ]
    ~rows:
      [
        [ "1"; Printf.sprintf "%.2f" seq; "1.00" ];
        [
          string_of_int jobs;
          Printf.sprintf "%.2f" par;
          Printf.sprintf "%.2f" (seq /. par);
        ];
      ]

let () =
  let argv = Array.to_list Sys.argv in
  let fast = List.mem "--fast" argv in
  let smoke = List.mem "--smoke" argv in
  let append = List.mem "--append" argv in
  let scale = List.mem "--scale" argv in
  let mode = if fast then E.Common.Fast else E.Common.Full in
  let opt flag =
    let rec find = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let jobs = Option.bind (opt "--jobs") int_of_string_opt in
  let label = Option.value (opt "--label") ~default:"local" in
  let run_label = Option.value (opt "--run-label") ~default:label in
  let out_dir = Option.value (opt "--out") ~default:"." in
  (* --filter REGEX (Str syntax, substring match) runs only the micro
     kernels whose name matches; scenes for dropped kernels are never
     built and the non-kernel suite sections are skipped. *)
  let filter_re = Option.map Str.regexp (opt "--filter") in
  let keep name =
    match filter_re with
    | None -> true
    | Some re -> (
      try
        ignore (Str.search_forward re name 0);
        true
      with Not_found -> false)
  in
  let filtered = Option.is_some filter_re in
  (* Smoke mode (CI): only the decide kernels, at a small quota — enough
     to catch an order-of-magnitude regression in the artifact. *)
  let quota =
    match Option.bind (opt "--quota") float_of_string_opt with
    | Some q -> q
    | None -> if smoke then 0.05 else 0.5
  in
  let t0 = Unix.gettimeofday () in
  Format.fprintf fmt
    "rtlf bench harness: micro-benchmarks + full figure regeneration@.";
  if not smoke then
    ignore
      (run_group ~name:"Native shared objects (Figure 8, real hardware)"
         (native_tests ~keep ()));
  let sched_rows =
    run_group ~quota
      ~name:"Scheduler decision cost (3.6: O(n^2 log n) vs O(n^2))"
      (scheduler_tests ~keep ())
  in
  let attr_rows =
    run_group ~quota ~name:"Attribution pass (rtlf explain hot path)"
      (attribution_tests ~keep ())
  in
  let smp_rows =
    run_scale_group ~quota
      ~name:"SMP dispatcher kernels (decide per core count)"
      (smp_kernels ~keep ())
  in
  let scale_rows =
    if not scale then []
    else begin
      (* --scale-max caps the sweep (CI runs up to 10^4 under a small
         quota; the tracked trajectory records the full 10^5 point). *)
      let max_n =
        Option.value
          (Option.bind (opt "--scale-max") int_of_string_opt)
          ~default:max_int
      in
      run_scale_group ~quota
        ~name:"Scale kernels (decide + event queue, n=10^3..10^5)"
        (scale_kernels ~keep ~max_n ())
    end
  in
  if not smoke then
    ignore
      (run_group ~name:"Per-figure simulation kernels" (sim_tests ~keep ()));
  if (not smoke) && not filtered then begin
    contention_sweep ();
    retry_profile ();
    parallel_sweep ~mode ();
    E.All.run ~mode ?jobs fmt
  end;
  let wall_s = Unix.gettimeofday () -. t0 in
  emit_json ~label ~run_label ~out_dir ~quota ~smoke ~append ~wall_s
    (sched_rows @ attr_rows @ smp_rows @ scale_rows);
  Format.fprintf fmt "@.done.@."
