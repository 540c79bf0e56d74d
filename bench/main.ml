(* Micro-benchmark harness: the kernels the end-to-end benchmark
   (bench/e2e) cannot measure, all timed by one fixed-batch wall-clock
   loop.

   - The native lock-free vs lock-based structures: the real-hardware
     analogue of Figure 8's r vs s, plus the CAS retry profile and the
     multi-domain contention sweep on real domains.
   - The scheduler-decision kernels underlying Figure 9 and §3.6's
     complexity claims, at n = 8/32/64 and, with --scale, from n = 10^3
     up, together with the event-queue hold.

   The decide and scale rows are written to BENCH_<label>.json. *)

module Job = Rtlf_model.Job
module Resource = Rtlf_model.Resource
module Lock_manager = Rtlf_model.Lock_manager
module Scheduler = Rtlf_core.Scheduler
module Workload = Rtlf_workload.Workload
module E = Rtlf_experiments

let fmt = Format.std_formatter

(* Every kernel is a [unit -> unit] closure over state its constructor
   builds; one call is one timed operation. *)

(* --- native structure kernels (Figure 8, real hardware) -------------- *)

let bench_ms_queue () =
  let q = Rtlf_lockfree.Ms_queue.create () in
  fun () ->
    Rtlf_lockfree.Ms_queue.enqueue q 1;
    ignore (Rtlf_lockfree.Ms_queue.dequeue q)

let bench_lock_queue () =
  let q = Rtlf_lockfree.Lock_queue.create () in
  fun () ->
    Rtlf_lockfree.Lock_queue.enqueue q 1;
    ignore (Rtlf_lockfree.Lock_queue.dequeue q)

let bench_treiber () =
  let st = Rtlf_lockfree.Treiber_stack.create () in
  fun () ->
    Rtlf_lockfree.Treiber_stack.push st 1;
    ignore (Rtlf_lockfree.Treiber_stack.pop st)

let bench_lock_stack () =
  let st = Rtlf_lockfree.Lock_stack.create () in
  fun () ->
    Rtlf_lockfree.Lock_stack.push st 1;
    ignore (Rtlf_lockfree.Lock_stack.pop st)

let bench_ring () =
  let q = Rtlf_lockfree.Ring_buffer.create ~capacity:64 in
  fun () ->
    ignore (Rtlf_lockfree.Ring_buffer.try_push q 1);
    ignore (Rtlf_lockfree.Ring_buffer.try_pop q)

let bench_lf_set () =
  let s = Rtlf_lockfree.Lf_set.create () in
  let k = ref 0 in
  fun () ->
    k := (!k + 1) land 1023;
    ignore (Rtlf_lockfree.Lf_set.add s !k);
    ignore (Rtlf_lockfree.Lf_set.remove s !k)

let bench_snapshot () =
  let snap = Rtlf_lockfree.Snapshot.create ~n:8 ~init:0 in
  fun () ->
    Rtlf_lockfree.Snapshot.update snap ~i:3 1;
    ignore (Rtlf_lockfree.Snapshot.scan snap)

let bench_nbw () =
  let reg = Rtlf_lockfree.Nbw_register.create 0 in
  fun () ->
    Rtlf_lockfree.Nbw_register.write reg 1;
    ignore (Rtlf_lockfree.Nbw_register.read reg)

let bench_four_slot () =
  let reg = Rtlf_lockfree.Four_slot.create 0 in
  fun () ->
    Rtlf_lockfree.Four_slot.write reg 1;
    ignore (Rtlf_lockfree.Four_slot.read reg)

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

(* Calls alternate between two physically distinct copies of the scene
   so that every call decides: the lock-free decider's cache keys on the
   array's identity, and on one array it would only revalidate. The
   other deciders keep no cache, so alternating changes nothing for
   them. [`Lock_based_no_waiter] runs lock-based RUA on an empty lock
   table, its no-waiter path. *)
let bench_decide ~sched ~n =
  let with_locks = sched = `Lock_based in
  let jobs, locks = scene ~n ~with_locks in
  let copies = [| Array.of_list jobs; Array.of_list jobs |] in
  let scheduler =
    match sched with
    | `Lock_based | `Lock_based_no_waiter ->
      Rtlf_core.Rua_lock_based.make ~locks
    | `Lock_free -> Rtlf_core.Rua_lock_free.make ()
    | `Edf -> Rtlf_core.Edf.make ()
    | `Edf_pip -> Rtlf_core.Edf_pip.make ~locks
  in
  let k = ref 0 in
  fun () ->
    k := 1 - !k;
    ignore (scheduler.Scheduler.decide ~now:0 ~jobs:copies.(!k) ~remaining)

(* The simulator's arrival pattern for one persistent lock-free
   decider: every call gets a fresh jid-sorted array that differs from
   the previous one by one job, so the cache misses and each rebuild
   can seed its sorts from the last. The live window slides over a
   pool of 2n jobs — the next jid arrives, then the oldest leaves —
   and after n slides starts over from the first window: one call in
   2n changes the whole set. *)
let bench_decide_arrival ~n =
  let tasks =
    Array.of_list (Workload.make { Workload.default with Workload.n_tasks = n })
  in
  let pool =
    Array.init (2 * n) (fun jid ->
        Job.create ~task:tasks.(jid mod n) ~jid ~arrival:0)
  in
  let windows =
    Array.init (2 * n) (fun k -> Array.sub pool (k / 2) (n + (k land 1)))
  in
  let scheduler = Rtlf_core.Rua_lock_free.make () in
  let k = ref 0 in
  fun () ->
    let jobs = windows.(!k) in
    k := if !k + 1 = Array.length windows then 0 else !k + 1;
    ignore (scheduler.Scheduler.decide ~now:0 ~jobs ~remaining)

(* --- scale kernels (10^3..10^5 live jobs / pending events) ------------- *)

(* The O(n^2)-and-worse deciders (edf-pip, rua-lock-based) are
   intentionally absent here: at n=10^5 a single decision would take
   minutes. The scale story is the O(n log n) pair plus the event
   queue. *)

let scale_sizes = [ 1_000; 10_000; 100_000 ]

let bench_decide_scale ~sched ~path jobs =
  let scheduler =
    match sched with
    | `Lock_free -> Rtlf_core.Rua_lock_free.make ()
    | `Edf -> Rtlf_core.Edf.make ()
  in
  match path with
  | `Rebuild ->
    (* Toggle one job's runnability between iterations so the
       lock-free decider's cache cannot hit: every run pays the full
       rebuild. EDF has no cache and sorts on every call either way. *)
    let j0 = jobs.(0) in
    fun () ->
      (j0.Job.state <-
         (match j0.Job.state with
         | Job.Ready -> Job.Blocked 0
         | _ -> Job.Ready));
      ignore (scheduler.Scheduler.decide ~now:0 ~jobs ~remaining)
  | `Cached ->
    (* Steady state: after the first call every decide revalidates the
       cache (O(n)) and returns the stored decision. *)
    fun () -> ignore (scheduler.Scheduler.decide ~now:0 ~jobs ~remaining)

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
  fun () ->
    let t = Rtlf_engine.Event_queue.min_time q in
    Rtlf_engine.Event_queue.pop_payload q;
    Rtlf_engine.Event_queue.add q ~time:(t + delta ()) ()

(* --- kernel groups ----------------------------------------------------- *)

(* A kernel is (name, batch, make); [pick] drops the ones --filter
   rejects before their scene is built (the 10^5-job scenes are
   expensive) and builds the rest. Batch sizes keep the timer reads off
   the hot path for the sub-microsecond kernels. *)
let pick ~keep entries =
  List.filter_map
    (fun (name, batch, mk) ->
      if keep name then Some (name, batch, mk ()) else None)
    entries

let native_kernels ~keep =
  pick ~keep
    (List.map
       (fun (name, mk) -> (name, 256, mk))
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
       ])

let decide_kernels ~keep =
  let variants n =
    [
      ( Printf.sprintf "rua-lock-based decide n=%d" n,
        fun () -> bench_decide ~sched:`Lock_based ~n );
      ( Printf.sprintf "rua-lock-based decide n=%d free" n,
        fun () -> bench_decide ~sched:`Lock_based_no_waiter ~n );
      ( Printf.sprintf "rua-lock-free decide n=%d" n,
        fun () -> bench_decide ~sched:`Lock_free ~n );
      ( Printf.sprintf "rua-lock-free decide n=%d arrival" n,
        fun () -> bench_decide_arrival ~n );
      ( Printf.sprintf "edf decide n=%d" n,
        fun () -> bench_decide ~sched:`Edf ~n );
      ( Printf.sprintf "edf-pip decide n=%d" n,
        fun () -> bench_decide ~sched:`Edf_pip ~n );
    ]
  in
  List.concat_map variants [ 8; 32; 64 ]
  |> List.map (fun (name, mk) -> (name, 1, mk))
  |> pick ~keep

let scale_kernels ~keep ~max_n =
  (* One scene per kernel: the rebuild kernels toggle job state between
     iterations, which would defeat the cached kernel's cache if they
     shared an array. *)
  let fresh_jobs n =
    let jobs, _locks = scene ~n ~with_locks:false in
    Array.of_list jobs
  in
  List.filter (fun n -> n <= max_n) scale_sizes
  |> List.concat_map (fun n ->
         [
           ( Printf.sprintf "rua-lock-free decide n=%d rebuild" n,
             1,
             fun () ->
               bench_decide_scale ~sched:`Lock_free ~path:`Rebuild
                 (fresh_jobs n) );
           ( Printf.sprintf "rua-lock-free decide n=%d cached" n,
             1,
             fun () ->
               bench_decide_scale ~sched:`Lock_free ~path:`Cached
                 (fresh_jobs n) );
           ( Printf.sprintf "edf decide n=%d rebuild" n,
             1,
             fun () ->
               bench_decide_scale ~sched:`Edf ~path:`Rebuild (fresh_jobs n) );
           ( Printf.sprintf "event-queue hold n=%d heap" n,
             256,
             fun () -> bench_queue_hold ~n );
         ])
  |> pick ~keep

(* --- the timing loop --------------------------------------------------- *)

(* The kernels span multi-ms (the 10^5-job rebuild) down to ~10 ns (a
   wait-free register): a fixed-batch wall-clock loop, run until
   [quota] seconds are spent, measures both extremes honestly. Prints
   the group's table and returns its [(name, ns_per_op)] rows; a group
   --filter emptied is skipped entirely. *)
let run_group ~quota ~name kernels =
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

(* --- machine-readable bench record (BENCH_<label>.json) ---------------- *)

(* Schema documented in DESIGN.md: one [{"name", "ns_per_op"}] object
   per measured kernel.

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
    List.map
      (fun (name, ns) -> J.Obj [ ("name", J.Str name); ("ns_per_op", num ns) ])
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

let () =
  let argv = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" argv in
  let append = List.mem "--append" argv in
  let scale = List.mem "--scale" argv in
  let opt flag =
    let rec find = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let label = Option.value (opt "--label") ~default:"local" in
  let run_label = Option.value (opt "--run-label") ~default:label in
  let out_dir = Option.value (opt "--out") ~default:"." in
  (* --filter REGEX (Str syntax, substring match) runs only the kernels
     whose name matches; scenes for dropped kernels are never built and
     the contention sweep and retry profile are skipped. *)
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
  (* Smoke mode (CI): only the decide kernels (and the scale sweep with
     --scale), at a small quota — enough to catch an order-of-magnitude
     regression in the artifact. *)
  let quota =
    match Option.bind (opt "--quota") float_of_string_opt with
    | Some q -> q
    | None -> if smoke then 0.05 else 0.5
  in
  let t0 = Unix.gettimeofday () in
  Format.fprintf fmt "rtlf bench harness: micro-benchmarks@.";
  if not smoke then
    ignore
      (run_group ~quota ~name:"Native shared objects (Figure 8, real hardware)"
         (native_kernels ~keep));
  let sched_rows =
    run_group ~quota
      ~name:"Scheduler decision cost (3.6: O(n^2 log n) vs O(n^2))"
      (decide_kernels ~keep)
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
      run_group ~quota
        ~name:"Scale kernels (decide + event queue, n=10^3..10^5)"
        (scale_kernels ~keep ~max_n)
    end
  in
  if (not smoke) && Option.is_none filter_re then begin
    contention_sweep ();
    retry_profile ()
  end;
  let wall_s = Unix.gettimeofday () -. t0 in
  emit_json ~label ~run_label ~out_dir ~quota ~smoke ~append ~wall_s
    (sched_rows @ scale_rows);
  Format.fprintf fmt "@.done.@."
