(* Randomised whole-simulation properties: for arbitrary seeded
   workloads and sharing disciplines, structural invariants must hold —
   conservation, metric ranges, Theorem 2, Lemma 1, time accounting,
   and cross-discipline sanity. *)

module Stats = Rtlf_engine.Stats
module Task = Rtlf_model.Task
module Sync = Rtlf_sim.Sync
module Simulator = Rtlf_sim.Simulator
module Trace = Rtlf_sim.Trace
module Cores = Rtlf_sim.Cores
module Contention = Rtlf_sim.Contention
module Csv = Rtlf_obs.Csv_export
module Workload = Rtlf_workload.Workload
module Retry_bound = Rtlf_core.Retry_bound

(* Generator for small random workload specifications. *)
let spec_gen =
  QCheck.Gen.(
    let* n_tasks = int_range 2 8 in
    let* n_objects = int_range 1 6 in
    let* accesses = int_range 0 6 in
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

let sync_of_int = function
  | 0 -> Sync.Ideal
  | 1 -> Sync.Lock_free { overhead = 150 }
  | 2 -> Sync.Lock_based { overhead = 2_000 }
  | 3 -> Sync.Spin { overhead = 800; kind = Sync.Ticket }
  | _ -> Sync.Spin { overhead = 800; kind = Sync.Mcs }

let simulate ?(sync = 1) ?(sched = Simulator.Rua) ?(trace = false)
    ?(retry_on_any_preemption = false) ?(cores = 1)
    ?(dispatch = Cores.Global) spec =
  let tasks = Workload.make spec in
  let horizon = 40 * 50_000 * spec.Workload.n_tasks in
  ( tasks,
    Simulator.run
      (Simulator.config ~tasks ~sync:(sync_of_int sync) ~sched ~horizon
         ~seed:99 ~retry_on_any_preemption ~trace ~cores ~dispatch ()) )

let prop name ?(count = 40) f =
  QCheck.Test.make ~name ~count
    QCheck.(pair spec_arb (int_bound 2))
    (fun (spec, sync) ->
      let tasks, res = simulate ~sync spec in
      f tasks spec sync res)

let conservation =
  prop "released = completed + aborted" (fun _ _ _ res ->
      res.Simulator.released
      = res.Simulator.completed + res.Simulator.aborted)

let metric_ranges =
  prop "AUR and CMR within [0,1]" (fun _ _ _ res ->
      res.Simulator.aur >= 0.0
      && res.Simulator.aur <= 1.0 +. 1e-9
      && res.Simulator.cmr >= 0.0
      && res.Simulator.cmr <= 1.0 +. 1e-9)

let accrued_bounded =
  prop "accrued utility below maximum possible" (fun _ _ _ res ->
      res.Simulator.accrued <= res.Simulator.max_possible +. 1e-6)

let met_below_completed =
  prop "met <= completed <= released" (fun _ _ _ res ->
      res.Simulator.met <= res.Simulator.completed
      && res.Simulator.completed <= res.Simulator.released)

let busy_within_time =
  prop "busy + overhead <= elapsed time" (fun _ _ _ res ->
      res.Simulator.busy + res.Simulator.sched_overhead
      <= res.Simulator.final_time)

let lemma1 =
  prop "Lemma 1: preemptions <= scheduler invocations" (fun _ _ _ res ->
      res.Simulator.preemptions <= res.Simulator.sched_invocations)

let theorem2 =
  QCheck.Test.make ~name:"Theorem 2 bound holds on random workloads"
    ~count:40 spec_arb
    (fun spec ->
      let tasks, res = simulate ~sync:1 spec in
      Array.for_all
        (fun (tr : Simulator.task_result) ->
          tr.Simulator.max_retries
          <= Retry_bound.bound ~tasks ~i:tr.Simulator.task_id)
        res.Simulator.per_task)

let theorem2_adversarial =
  QCheck.Test.make
    ~name:"Theorem 2 bound holds under the adversarial retry rule"
    ~count:40 spec_arb
    (fun spec ->
      let tasks, res =
        simulate ~sync:1 ~retry_on_any_preemption:true spec
      in
      Array.for_all
        (fun (tr : Simulator.task_result) ->
          tr.Simulator.max_retries
          <= Retry_bound.bound ~tasks ~i:tr.Simulator.task_id)
        res.Simulator.per_task)

let no_retries_without_lockfree =
  prop "retries only under lock-free" (fun _ _ sync res ->
      sync = 1 || res.Simulator.retries_total = 0)

let no_blocking_without_locks =
  prop "blocking only under lock-based" (fun _ _ sync res ->
      sync = 2 || res.Simulator.blocked_events = 0)

let sojourns_exceed_work =
  prop "sojourns of completed jobs >= private compute"
    (fun tasks _ _ res ->
      Array.for_all
        (fun (tr : Simulator.task_result) ->
          let s = tr.Simulator.sojourn in
          s.Stats.n = 0
          ||
          let task = List.nth tasks tr.Simulator.task_id in
          (* min sojourn can't be below the pure compute time *)
          s.Stats.min >= float_of_int task.Task.exec -. 1e-6)
        res.Simulator.per_task)

(* A traced run obeys the trace contract under its discipline, and its
   CSV export reads back: ingest, which cannot know the discipline,
   accepts every trace the simulator writes. *)
let trace_legal ?(name = Fun.id) ~sync tr =
  let fail msg = QCheck.Test.fail_report (name msg) in
  (match Trace.check ~sync:(sync_of_int sync) tr with
  | Ok () -> true
  | Error msg -> fail msg)
  &&
  match Csv.of_string (Csv.to_string tr) with
  | Ok back ->
    Trace.entries back = Trace.entries tr
    || fail "CSV round trip changed the trace"
  | Error msg -> fail ("CSV ingest: " ^ msg)

(* Every sync x sched configuration on one core. Smaller count: 9
   simulations per case. *)
let trace_checkers_all_configs =
  QCheck.Test.make ~name:"trace checkers hold on every sync x sched"
    ~count:8 spec_arb
    (fun spec ->
      List.for_all
        (fun sync ->
          List.for_all
            (fun sched ->
              let _, res = simulate ~sync ~sched ~trace:true spec in
              trace_legal ~sync res.Simulator.trace)
            [ Simulator.Rua; Simulator.Edf; Simulator.Edf_pip ])
        [ 0; 1; 2 ])

(* The contract over every sync x sched x cores combination, and the
   traced migrations against the result's count. *)
let smp_checks ~sync ~cores ~dispatch res =
  let tr = res.Simulator.trace in
  let name msg =
    Printf.sprintf "sync=%d cores=%d %s: %s" sync cores
      (Cores.policy_name dispatch) msg
  in
  let traced =
    Trace.count tr (function Trace.Migrate _ -> true | _ -> false)
  in
  let counted = res.Simulator.migrations in
  trace_legal ~name ~sync tr
  && (traced = counted
     || QCheck.Test.fail_report
          (name
             (Printf.sprintf "trace has %d migrations, result counted %d"
                traced counted)))
  && ((cores > 1 && dispatch = Cores.Global)
     || counted = 0
     || QCheck.Test.fail_report
          (name (Printf.sprintf "%d migrations are impossible here" counted))
     )

let smp_trace_invariants_all_configs =
  QCheck.Test.make
    ~name:"SMP trace invariants hold on every sync x sched x cores"
    ~count:2 spec_arb
    (fun spec ->
      List.for_all
        (fun sync ->
          List.for_all
            (fun sched ->
              List.for_all
                (fun cores ->
                  let _, res =
                    simulate ~sync ~sched ~trace:true ~cores spec
                  in
                  smp_checks ~sync ~cores ~dispatch:Cores.Global res)
                [ 1; 2; 4 ])
            [ Simulator.Rua; Simulator.Edf; Simulator.Edf_pip ])
        [ 0; 1; 2; 3; 4 ])

let smp_trace_invariants_partitioned =
  QCheck.Test.make
    ~name:"SMP trace invariants hold under partitioned dispatch" ~count:3
    spec_arb
    (fun spec ->
      List.for_all
        (fun sync ->
          List.for_all
            (fun cores ->
              let _, res =
                simulate ~sync ~trace:true ~cores
                  ~dispatch:Cores.Partitioned spec
              in
              smp_checks ~sync ~cores ~dispatch:Cores.Partitioned res)
            [ 2; 4 ])
        [ 0; 1; 2; 3; 4 ])

let smp_accounting =
  QCheck.Test.make
    ~name:"multicore conservation, metrics, and per-core busy accounting"
    ~count:10 spec_arb
    (fun spec ->
      List.for_all
        (fun (cores, dispatch) ->
          let _, res = simulate ~sync:1 ~cores ~dispatch spec in
          res.Simulator.released
          = res.Simulator.completed + res.Simulator.aborted
          && res.Simulator.aur >= 0.0
          && res.Simulator.aur <= 1.0 +. 1e-9
          && res.Simulator.busy + res.Simulator.sched_overhead
             <= cores * res.Simulator.final_time
          && Array.length res.Simulator.per_core_busy = cores
          && Array.fold_left ( + ) 0 res.Simulator.per_core_busy
             = res.Simulator.busy)
        [
          (2, Cores.Global);
          (4, Cores.Global);
          (2, Cores.Partitioned);
          (4, Cores.Partitioned);
        ])

let observability_consistent =
  prop "histograms and contention agree with counters" (fun _ _ _ res ->
      let totals = Contention.totals res.Simulator.contention in
      (* retries_total sums over released (finished) jobs only, while
         the contention profile counts every event, including retries
         of jobs still in flight at the horizon. *)
      (Simulator.sojourn_hist res).Stats.n
      = Array.length res.Simulator.sojourn_samples
      && totals.Contention.t_retries >= res.Simulator.retries_total
      && (res.Simulator.in_flight > 0
         || totals.Contention.t_retries = res.Simulator.retries_total)
      && totals.Contention.t_conflicts >= totals.Contention.t_retries
      && res.Simulator.blocking_hist.Stats.n <= res.Simulator.blocked_events
      && totals.Contention.t_blocked_ns >= 0)

let determinism =
  QCheck.Test.make ~name:"identical configs give identical results"
    ~count:20 spec_arb
    (fun spec ->
      let _, r1 = simulate ~sync:2 spec in
      let _, r2 = simulate ~sync:2 spec in
      r1.Simulator.released = r2.Simulator.released
      && r1.Simulator.accrued = r2.Simulator.accrued
      && r1.Simulator.final_time = r2.Simulator.final_time
      && r1.Simulator.sched_invocations = r2.Simulator.sched_invocations)

let ideal_at_least_as_good =
  QCheck.Test.make
    ~name:"ideal sharing accrues at least as much utility as lock-based"
    ~count:25 spec_arb
    (fun spec ->
      (* Not a theorem per-run (different schedules), so compare with a
         small tolerance relative to the maximum. *)
      let _, ideal = simulate ~sync:0 spec in
      let _, lb = simulate ~sync:2 spec in
      ideal.Simulator.aur >= lb.Simulator.aur -. 0.12)

let () =
  Test_support.run "sim_properties"
    [
      ( "invariants",
        List.map Test_support.to_alcotest
          [
            conservation;
            metric_ranges;
            accrued_bounded;
            met_below_completed;
            busy_within_time;
            lemma1;
            no_retries_without_lockfree;
            no_blocking_without_locks;
            sojourns_exceed_work;
            determinism;
            trace_checkers_all_configs;
            smp_trace_invariants_all_configs;
            smp_trace_invariants_partitioned;
            smp_accounting;
            observability_consistent;
          ] );
      ( "bounds",
        List.map Test_support.to_alcotest
          [ theorem2; theorem2_adversarial; ideal_at_least_as_good ] );
    ]
