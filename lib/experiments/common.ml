module Task = Rtlf_model.Task
module Uam = Rtlf_model.Uam
module Sync = Rtlf_sim.Sync
module Simulator = Rtlf_sim.Simulator
module Metrics = Rtlf_sim.Metrics

type mode = Fast | Full

(* Cost constants chosen so that, as in the paper's measurements
   (Fig. 8), the lock-based path is an order of magnitude costlier than
   the lock-free one: lock-based accesses pay lock management twice
   plus two scheduler activations of an O(n^2 log n) algorithm;
   lock-free accesses pay a small validation overhead only. *)
let lock_overhead = 5_000
let cas_overhead = 150
let spin_overhead = 800
let access_work = 500
let sched_base = 200
let sched_per_op = 25

let lock_based = Sync.Lock_based { overhead = lock_overhead }
let lock_free = Sync.Lock_free { overhead = cas_overhead }
let spin_ticket = Sync.Spin { overhead = spin_overhead; kind = Sync.Ticket }
let spin_mcs = Sync.Spin { overhead = spin_overhead; kind = Sync.Mcs }

let seeds = function Fast -> [ 1; 2; 3 ] | Full -> [ 1; 2; 3; 4; 5 ]

let horizon_for mode tasks =
  let max_window =
    List.fold_left (fun acc t -> max acc t.Task.arrival.Uam.w) 1 tasks
  in
  let windows = match mode with Fast -> 40 | Full -> 250 in
  windows * max_window

let simulate ?(mode = Full) ?(sync = lock_free) ?(sched = Simulator.Rua)
    ?(trace = false) ?trace_capacity ?cores ?dispatch ?sched_mode ~seed
    tasks =
  let horizon = horizon_for mode tasks in
  Simulator.run
    (Simulator.config ~tasks ~sync ~sched ~horizon ~seed ~sched_base
       ~sched_per_op ~trace ?trace_capacity ?cores ?dispatch
       ?mode:sched_mode ())

let measure ?(mode = Full) ?jobs ?cores ?dispatch ~sync tasks =
  Metrics.repeat ?jobs ~seeds:(seeds mode)
    ~run:(fun ~seed -> simulate ~mode ~sync ?cores ?dispatch ~seed tasks)
    ()

let map_points ?jobs f points = Rtlf_engine.Pool.map ?jobs f points
