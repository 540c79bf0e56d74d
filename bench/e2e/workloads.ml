(* The four benchmark workloads (README.md says why each exists), their
   seeded inputs, and the correctness gate every run passes through.

   A simulator workload is a list of runs. Run [i] of a pass with base
   seed [n] simulates its own task set, synthesised from a seed drawn
   off a SplitMix stream rooted at [n], with simulator seed [n + i]. One
   task set per run (rather than one per pass) keeps a pass an average
   over many task sets, so pass-level host metrics move little from one
   base seed to the next. *)

module Simulator = Rtlf_sim.Simulator
module Workload = Rtlf_workload.Workload
module Common = Rtlf_experiments.Common
module Prng = Rtlf_engine.Prng

type sim = {
  spec : Workload.spec;
  sync : Rtlf_sim.Sync.t;
  horizon : Common.mode;  (** which [Common.horizon_for] the runs use *)
  runs : int;             (** runs per pass *)
}

type kind = Sim of sim | Figures

type t = { name : string; kind : kind; passes : int }

let underload =
  {
    name = "underload";
    kind =
      Sim
        {
          spec = { Workload.default with Workload.target_al = 0.5 };
          sync = Common.lock_free;
          horizon = Common.Full;
          runs = 100;
        };
    passes = 5;
  }

let overload =
  {
    name = "overload";
    kind =
      Sim
        {
          spec =
            { Workload.default with Workload.n_tasks = 32; target_al = 1.2 };
          sync = Common.lock_free;
          horizon = Common.Fast;
          runs = 20;
        };
    passes = 5;
  }

let locks =
  {
    name = "locks";
    kind =
      Sim
        {
          spec =
            {
              Workload.default with
              Workload.n_tasks = 16;
              n_objects = 2;
              accesses_per_job = 2;
              target_al = 0.7;
              tuf_class = Workload.Heterogeneous;
            };
          sync = Common.lock_based;
          horizon = Common.Full;
          runs = 30;
        };
    passes = 5;
  }

let figures = { name = "figures-fast"; kind = Figures; passes = 3 }

let all = [ underload; overload; locks; figures ]

let find name = List.find_opt (fun w -> w.name = name) all

(* --- inputs ----------------------------------------------------------- *)

type run_input = {
  spec : Workload.spec;  (** the run's task set is [Workload.make spec] *)
  cfg : Simulator.config;
}

(* Task-set seeds for a pass: a SplitMix stream rooted at the base seed,
   so neighbouring base seeds share no task set. *)
let task_set_seeds ~seed n =
  let g = Prng.create ~seed in
  List.init n (fun _ -> Prng.int g ~bound:(1 lsl 30))

let config (sim : sim) ~seed tasks =
  Simulator.config ~tasks ~sync:sim.sync ~sched:Simulator.Rua
    ~n_objects:sim.spec.Workload.n_objects
    ~horizon:(Common.horizon_for sim.horizon tasks)
    ~seed ~sched_base:Common.sched_base ~sched_per_op:Common.sched_per_op ()

(* The inputs of runs [0, n) of a pass with base seed [seed]. *)
let inputs (sim : sim) ~seed ~n =
  List.mapi
    (fun i ts ->
      let spec = { sim.spec with Workload.seed = ts } in
      { spec; cfg = config sim ~seed:(seed + i) (Workload.make spec) })
    (task_set_seeds ~seed n)

(* --- correctness gate ------------------------------------------------- *)

(* MD5 over every simulated statistic a speed-only change must keep
   bit-identical. Floats are hashed in hexadecimal ([%h]) so the digest
   sees every bit. *)
let digest (r : Simulator.result) =
  let b = Buffer.create 4096 in
  List.iter
    (fun v -> Printf.bprintf b "%d;" v)
    [
      r.released; r.completed; r.met; r.aborted; r.in_flight; r.final_time;
      r.retries_total; r.preemptions; r.blocked_events; r.migrations;
      r.sched_invocations; r.sched_overhead; r.busy;
    ];
  Printf.bprintf b "%h;%h;" r.accrued r.aur;
  Array.iter (fun v -> Printf.bprintf b "%h," v) r.sojourn_samples;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Invariants every run must satisfy, as a list of broken ones. *)
let invariant_failures (r : Simulator.result) =
  let check ok msg acc = if ok then acc else msg :: acc in
  []
  |> check
       (r.released = r.completed + r.aborted)
       "released <> completed + aborted"
  |> check
       (Array.fold_left ( + ) 0 r.per_core_busy = r.busy)
       "per-core busy does not sum to busy"
  |> check (r.aur >= 0.0 && r.aur <= 1.0) "AUR outside [0, 1]"
  |> check
       (r.audit.Rtlf_sim.Audit.violations = [])
       "Theorem-2 audit violations"
  |> List.rev

(* Whether an experiment's report is digested: [blame] and
   [static_overhead] print host timings, so only their raising fails a
   pass. *)
let digested name = not (List.mem name [ "blame"; "static_overhead" ])

let report_digest text = Digest.to_hex (Digest.string text)
