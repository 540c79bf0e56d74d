module Workload = Rtlf_workload.Workload
module Simulator = Rtlf_sim.Simulator
module Attribution = Rtlf_obs.Attribution

type row = {
  load : float;
  sync_name : string;
  aur : float;
  resolved : int;
  sojourn_ns : int;
  own : float;
  retry : float;
  blocked : float;
  preempted : float;
  sched : float;
  abort : float;
  idle : float;
  conservation_ok : bool;
}

let loads = function
  | Common.Fast -> [ 0.4; 0.8; 1.1 ]
  | Common.Full -> [ 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0; 1.1 ]

(* Fewer objects than tasks and long per-access data work so lock
   holders actually collide (blocking for lock-based, invalidation
   retries for lock-free); a modest task count keeps the traced runs
   (every event retained) affordable. *)
let spec ~load =
  {
    Workload.default with
    Workload.n_tasks = 8;
    n_objects = 2;
    accesses_per_job = 6;
    access_work = 5_000;
    burst = 3;
    mean_exec = 100_000;
    target_al = load;
    seed = 11;
  }

let attribute ~load ~sync tasks =
  let mode = Common.Fast in
  let res = Common.simulate ~mode ~sync ~trace:true ~seed:7 tasks in
  match Attribution.of_trace ~tasks res.Simulator.trace with
  | Error msg -> failwith ("blame: attribution refused: " ^ msg)
  | Ok a ->
    let total f = List.fold_left (fun s j -> s + f j) 0 a.Attribution.jobs in
    let sojourn_ns = total (fun j -> j.Attribution.sojourn) in
    let share ns =
      if sojourn_ns = 0 then 0.0
      else float_of_int ns /. float_of_int sojourn_ns
    in
    {
      load;
      sync_name = res.Simulator.sync_name;
      aur = res.Simulator.aur;
      resolved = List.length a.Attribution.jobs;
      sojourn_ns;
      own = share (total (fun j -> j.Attribution.own));
      retry = share (total (fun j -> j.Attribution.retry));
      blocked = share (total (fun j -> j.Attribution.blocked));
      preempted = share (total (fun j -> j.Attribution.preempted));
      sched = share (total (fun j -> j.Attribution.sched));
      abort = share (total (fun j -> j.Attribution.abort_handler));
      idle = share (total (fun j -> j.Attribution.idle));
      conservation_ok = Result.is_ok (Attribution.check a);
    }

let compute ?(mode = Common.Full) ?jobs () =
  Common.map_points ?jobs
    (fun load ->
      let tasks = Workload.make (spec ~load) in
      [
        attribute ~load ~sync:Common.lock_based tasks;
        attribute ~load ~sync:Common.lock_free tasks;
      ])
    (loads mode)
  |> List.concat

let table_for fmt rows name =
  Report.subsection fmt name;
  Report.table fmt
    ~header:
      [ "load"; "AUR"; "jobs"; "own"; "retry"; "blocked"; "preempt";
        "sched"; "abort"; "idle" ]
    ~rows:
      (List.filter_map
         (fun r ->
           if r.sync_name <> name then None
           else
             Some
               [
                 Report.f2 r.load; Report.pct r.aur;
                 string_of_int r.resolved; Report.pct r.own;
                 Report.pct r.retry; Report.pct r.blocked;
                 Report.pct r.preempted; Report.pct r.sched;
                 Report.pct r.abort; Report.pct r.idle;
               ])
         rows)

let run ?(mode = Common.Full) ?jobs fmt =
  Report.section fmt
    "Blame: sojourn decomposition vs load (lock-based vs lock-free)";
  let rows = compute ~mode ?jobs () in
  (match List.filter (fun r -> not r.conservation_ok) rows with
  | [] -> ()
  | bad ->
    failwith
      (Printf.sprintf
         "blame: conservation invariant violated at %d sweep point(s)"
         (List.length bad)));
  table_for fmt rows "lock-based";
  table_for fmt rows "lock-free";
  Format.fprintf fmt
    "conservation: OK at all %d points (components sum to sojourn \
     bit-exactly)@."
    (List.length rows)
