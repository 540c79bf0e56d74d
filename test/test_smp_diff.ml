(* The m = 1 differential suite: [Simulator.run] at [cores = 1] must be
   bit-identical — result field for result field, trace entry for trace
   entry — to the frozen pre-SMP engine in [Single_ref], across seeded
   scenes x sync discipline x scheduler x dispatch policy. This is the
   pin that lets the SMP engine evolve without silently changing the
   single-CPU semantics every published figure rests on. *)

module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Segment = Rtlf_model.Segment
module Sync = Rtlf_sim.Sync
module Simulator = Rtlf_sim.Simulator
module Single_ref = Rtlf_sim.Single_ref
module Cores = Rtlf_sim.Cores
module Trace = Rtlf_sim.Trace
module Workload = Rtlf_workload.Workload

let syncs =
  [
    ("ideal", Sync.Ideal);
    ("lock-free", Sync.Lock_free { overhead = 150 });
    ("lock-based", Sync.Lock_based { overhead = 2_000 });
    ("spin-ticket", Sync.Spin { overhead = 800; kind = Sync.Ticket });
    ("spin-mcs", Sync.Spin { overhead = 800; kind = Sync.Mcs });
  ]

let scheds =
  [
    ("rua", Simulator.Rua);
    ("edf", Simulator.Edf);
    ("edf-pip", Simulator.Edf_pip);
  ]

let dispatches = [ ("global", Cores.Global); ("partitioned", Cores.Partitioned) ]

(* Field-by-field equality with the first differing field named, so a
   divergence pinpoints the broken account rather than "results
   differ". The trace is compared as entry lists (the recorder's
   internal buffers legitimately differ in spare capacity). *)
let diff_fields (a : Simulator.result) (b : Simulator.result) =
  let checks =
    [
      ("sync_name", a.Simulator.sync_name = b.Simulator.sync_name);
      ("sched_name", a.Simulator.sched_name = b.Simulator.sched_name);
      ("dispatch_name", a.Simulator.dispatch_name = b.Simulator.dispatch_name);
      ("cores", a.Simulator.cores = b.Simulator.cores);
      ("final_time", a.Simulator.final_time = b.Simulator.final_time);
      ("released", a.Simulator.released = b.Simulator.released);
      ("completed", a.Simulator.completed = b.Simulator.completed);
      ("met", a.Simulator.met = b.Simulator.met);
      ("aborted", a.Simulator.aborted = b.Simulator.aborted);
      ("in_flight", a.Simulator.in_flight = b.Simulator.in_flight);
      ("accrued", compare a.Simulator.accrued b.Simulator.accrued = 0);
      ("max_possible", compare a.Simulator.max_possible b.Simulator.max_possible = 0);
      ("aur", compare a.Simulator.aur b.Simulator.aur = 0);
      ("cmr", compare a.Simulator.cmr b.Simulator.cmr = 0);
      ("retries_total", a.Simulator.retries_total = b.Simulator.retries_total);
      ("preemptions", a.Simulator.preemptions = b.Simulator.preemptions);
      ( "blocked_events",
        a.Simulator.blocked_events = b.Simulator.blocked_events );
      ("migrations", a.Simulator.migrations = b.Simulator.migrations);
      ( "sched_invocations",
        a.Simulator.sched_invocations = b.Simulator.sched_invocations );
      ( "sched_overhead",
        a.Simulator.sched_overhead = b.Simulator.sched_overhead );
      ("busy", a.Simulator.busy = b.Simulator.busy);
      ("per_core_busy", compare a.Simulator.per_core_busy b.Simulator.per_core_busy = 0);
      ( "access_samples",
        compare a.Simulator.access_samples b.Simulator.access_samples = 0 );
      ( "sojourn_samples",
        compare a.Simulator.sojourn_samples b.Simulator.sojourn_samples = 0 );
      ("sojourn_hist", compare a.Simulator.sojourn_hist b.Simulator.sojourn_hist = 0);
      ("blocking_hist", compare a.Simulator.blocking_hist b.Simulator.blocking_hist = 0);
      ("sched_hist", compare a.Simulator.sched_hist b.Simulator.sched_hist = 0);
      ("contention", compare a.Simulator.contention b.Simulator.contention = 0);
      ("per_task", compare a.Simulator.per_task b.Simulator.per_task = 0);
      ("audit", compare a.Simulator.audit b.Simulator.audit = 0);
      ( "trace",
        Trace.entries a.Simulator.trace = Trace.entries b.Simulator.trace );
    ]
  in
  List.filter_map (fun (name, ok) -> if ok then None else Some name) checks

let first_trace_divergence a b =
  let rec go i xs ys =
    match (xs, ys) with
    | [], [] -> None
    | x :: xs, y :: ys when x = y -> go (i + 1) xs ys
    | x :: _, y :: _ ->
      Some
        (Printf.sprintf "entry %d: smp %s / ref %s" i
           (Format.asprintf "%a" Trace.pp_entry x)
           (Format.asprintf "%a" Trace.pp_entry y))
    | x :: _, [] ->
      Some
        (Printf.sprintf "entry %d only in smp: %s" i
           (Format.asprintf "%a" Trace.pp_entry x))
    | [], y :: _ ->
      Some
        (Printf.sprintf "entry %d only in ref: %s" i
           (Format.asprintf "%a" Trace.pp_entry y))
  in
  go 0 (Trace.entries a.Simulator.trace) (Trace.entries b.Simulator.trace)

let compare_engines ~label cfg =
  let smp = Simulator.run cfg in
  let reference = Single_ref.run cfg in
  match diff_fields smp reference with
  | [] -> true
  | bad ->
    let detail =
      if List.mem "trace" bad then
        match first_trace_divergence smp reference with
        | Some d -> "; first trace divergence: " ^ d
        | None -> ""
      else ""
    in
    QCheck.Test.fail_reportf "%s: fields differ from Single_ref: %s%s" label
      (String.concat ", " bad) detail

(* --- randomised scenes ----------------------------------------------- *)

let spec_gen =
  QCheck.Gen.(
    let* n_tasks = int_range 2 8 in
    let* n_objects = int_range 1 5 in
    let* accesses = int_range 0 5 in
    let* load10 = int_range 2 14 in
    let* burst = int_range 1 3 in
    let* hetero = bool in
    let* seed = int_range 1 10_000 in
    return
      {
        Workload.default with
        Workload.n_tasks;
        n_objects;
        accesses_per_job = accesses;
        target_al = float_of_int load10 /. 10.0;
        tuf_class =
          (if hetero then Workload.Heterogeneous else Workload.Step_only);
        mean_exec = 50_000;
        access_work = 2_000;
        burst;
        seed;
      })

let spec_arb =
  QCheck.make spec_gen ~print:(fun spec ->
      Format.asprintf "%a (seed %d)" Workload.pp_spec spec
        spec.Workload.seed)

let config_of ~sync ~sched ~dispatch spec =
  let tasks = Workload.make spec in
  let horizon = 20 * 50_000 * spec.Workload.n_tasks in
  Simulator.config ~tasks ~sync ~sched ~horizon
    ~seed:(Test_support.seed + spec.Workload.seed)
    ~trace:true ~cores:1 ~dispatch ()

let bit_identical_all_configs =
  QCheck.Test.make
    ~name:"cores=1 bit-identical to Single_ref on every sync x sched x \
           dispatch"
    ~count:6 spec_arb
    (fun spec ->
      List.for_all
        (fun (sync_name, sync) ->
          List.for_all
            (fun (sched_name, sched) ->
              List.for_all
                (fun (disp_name, dispatch) ->
                  let label =
                    Printf.sprintf "%s/%s/%s (wl seed %d)" sync_name
                      sched_name disp_name spec.Workload.seed
                  in
                  compare_engines ~label
                    (config_of ~sync ~sched ~dispatch spec))
                dispatches)
            scheds)
        syncs)

let bit_identical_adversarial_retry =
  QCheck.Test.make
    ~name:"cores=1 bit-identical under the adversarial retry rule" ~count:4
    spec_arb
    (fun spec ->
      let tasks = Workload.make spec in
      let horizon = 20 * 50_000 * spec.Workload.n_tasks in
      let cfg =
        Simulator.config ~tasks
          ~sync:(Sync.Lock_free { overhead = 150 })
          ~sched:Simulator.Rua ~horizon
          ~seed:(Test_support.seed + spec.Workload.seed)
          ~retry_on_any_preemption:true ~trace:true ~cores:1 ()
      in
      compare_engines ~label:"lock-free/adversarial" cfg)

(* --- deterministic scenes -------------------------------------------- *)

let us n = n * 1_000
let ms n = n * 1_000_000

(* Nested critical sections (Lock/Unlock markers), including the
   deadlock-forming pair under lock-based RUA: exercises victim
   aborts, release chains, and the spin engine's Lock/Unlock path. *)
let nested_tasks () =
  let profile first second =
    [
      Segment.Lock first;
      Segment.Compute (us 1000);
      Segment.Lock second;
      Segment.Compute (us 50);
      Segment.Unlock second;
      Segment.Unlock first;
      Segment.Compute (us 20);
    ]
  in
  [
    Task.make_nested ~id:0 ~name:"forward"
      ~tuf:(Tuf.step ~height:2.0 ~c:(us 4500))
      ~arrival:(Uam.periodic ~period:(us 5000))
      ~profile:(profile 0 1) ~abort_cost:(us 5) ();
    Task.make_nested ~id:1 ~name:"backward"
      ~tuf:(Tuf.step ~height:1.0 ~c:(us 3000))
      ~arrival:(Uam.periodic ~period:(us 4700))
      ~profile:(profile 1 0) ~abort_cost:(us 3) ();
  ]

let nested_scene () =
  List.iter
    (fun (sync_name, sync) ->
      let cfg =
        Simulator.config ~tasks:(nested_tasks ()) ~sync ~n_objects:2
          ~horizon:(ms 100) ~seed:3 ~trace:true ~cores:1 ()
      in
      ignore
        (compare_engines ~label:(Printf.sprintf "nested/%s" sync_name) cfg))
    syncs

let rejects_multicore () =
  let cfg =
    Simulator.config ~tasks:(nested_tasks ()) ~sync:Sync.Ideal ~n_objects:2
      ~horizon:(ms 1) ~cores:2 ()
  in
  Alcotest.check_raises "Single_ref rejects cores<>1"
    (Invalid_argument "Single_ref: the reference engine is single-core")
    (fun () -> ignore (Single_ref.run cfg))

let () =
  Test_support.run "smp_diff"
    [
      ( "differential",
        List.map Test_support.to_alcotest
          [
            bit_identical_all_configs;
            bit_identical_adversarial_retry;
          ] );
      ( "deterministic",
        [
          Alcotest.test_case "nested + deadlock scene" `Quick nested_scene;
          Alcotest.test_case "cores guard" `Quick rejects_multicore;
        ] );
    ]
