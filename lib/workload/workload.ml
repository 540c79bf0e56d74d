module Prng = Rtlf_engine.Prng
module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam

type tuf_class = Step_only | Heterogeneous

type spec = {
  n_tasks : int;
  n_objects : int;
  target_al : float;
  tuf_class : tuf_class;
  mean_exec : int;
  accesses_per_job : int;
  access_work : int;
  burst : int;
  window_factor : float;
  abort_cost : int;
  readers : int;
  seed : int;
}

let default =
  {
    n_tasks = 10;
    n_objects = 10;
    target_al = 0.4;
    tuf_class = Step_only;
    mean_exec = 200_000;
    accesses_per_job = 4;
    access_work = 500;
    burst = 2;
    (* W = C: the UAM generator then averages ~1 arrival per window, so
       the processor utilization tracks AL = sum u_i/C_i closely and
       "AL = 1.1" is a genuine overload, as in the paper's §6.2. *)
    window_factor = 1.0;
    abort_cost = 0;
    readers = 0;
    seed = 1;
  }

let validate spec =
  let fail fmt = Printf.ksprintf invalid_arg ("Workload: " ^^ fmt) in
  if spec.n_tasks <= 0 then
    fail "n_tasks must be positive (got %d)" spec.n_tasks;
  (* [<= 0.0] alone lets nan through, and an infinite load releases no
     jobs: both would run silently. *)
  if not (Float.is_finite spec.target_al && spec.target_al > 0.0) then
    fail "target_al must be positive and finite (got %g)" spec.target_al;
  if spec.mean_exec <= 0 then
    fail "mean_exec must be positive (got %d)" spec.mean_exec;
  if spec.n_objects < 0 then fail "negative n_objects (got %d)" spec.n_objects;
  if spec.accesses_per_job < 0 then
    fail "negative accesses_per_job (got %d)" spec.accesses_per_job;
  if spec.accesses_per_job > 0 && spec.n_objects <= 0 then
    fail "accesses but no objects (got n_objects %d)" spec.n_objects;
  if spec.access_work < 0 then
    fail "negative access_work (got %d)" spec.access_work;
  if spec.burst < 1 then fail "burst must be >= 1 (got %d)" spec.burst;
  if not (Float.is_finite spec.window_factor && spec.window_factor >= 1.0)
  then
    fail "window_factor must be finite and >= 1 (model needs C <= W; got %g)"
      spec.window_factor;
  if spec.abort_cost < 0 then
    fail "negative abort_cost (got %d)" spec.abort_cost;
  if spec.readers < 0 || spec.readers > spec.n_tasks then
    fail "readers out of range (got %d of %d tasks)" spec.readers spec.n_tasks

(* Empirical arrivals-per-window of the UAM generator for burst [a]:
   probe a throwaway law so the calibration below stays correct even if
   the generator's drawing policy changes. Scale-invariant in [w]. *)
let arrival_rate ~a g =
  if a = 1 then 1.0
  else begin
    let w = 1_000_000 in
    let law = Uam.make ~l:1 ~a ~w in
    let horizon = 200 * w in
    let trace = Uam.generate law g ~start:0 ~horizon in
    match (trace, List.rev trace) with
    | first :: _, last :: _ when last > first ->
      float_of_int (List.length trace - 1)
      *. float_of_int w
      /. float_of_int (last - first)
    | _ -> float_of_int a
  end

let pick_tuf spec g ~index ~c =
  let height = Prng.float_in g ~lo:20.0 ~hi:100.0 in
  match spec.tuf_class with
  | Step_only -> Tuf.step ~height ~c
  | Heterogeneous -> (
    match index mod 3 with
    | 0 -> Tuf.step ~height ~c
    | 1 -> Tuf.linear ~u0:height ~c
    | 2 -> Tuf.parabolic ~u0:height ~c
    | _ -> assert false)

let make spec =
  validate spec;
  let root = Prng.create ~seed:spec.seed in
  let per_task_load = spec.target_al /. float_of_int spec.n_tasks in
  let rate = arrival_rate ~a:spec.burst (Prng.create ~seed:987654321) in
  List.init spec.n_tasks (fun i ->
      let g = Prng.split root in
      (* Log-uniform within ±40 % keeps execution-time diversity
         without extreme outliers. *)
      let factor = exp (Prng.float_in g ~lo:(log 0.6) ~hi:(log 1.4)) in
      let exec =
        max 1 (int_of_float (float_of_int spec.mean_exec *. factor))
      in
      (* Critical times are whole nanoseconds: a load so high that one
         falls below 1 ns has no meaningful task set. *)
      let c_ns = float_of_int exec /. per_task_load in
      if c_ns < 1.0 then
        invalid_arg
          (Printf.sprintf
             "Workload: target_al %g gives task %d a critical time below 1 \
              ns (%g ns)"
             spec.target_al i c_ns);
      let c = int_of_float c_ns in
      (* Scale the window by the generator's empirical arrivals-per-
         window so the offered utilization tracks AL: with [rate] jobs
         per window of [rate·window_factor·C], per-task utilization is
         exec/(window_factor·C) = AL/n, independent of burstiness. *)
      let w =
        max c
          (int_of_float
             (ceil (rate *. spec.window_factor *. float_of_int c)))
      in
      let tuf = pick_tuf spec g ~index:i ~c in
      let arrival = Uam.make ~l:1 ~a:spec.burst ~w in
      let accesses =
        List.init spec.accesses_per_job (fun k ->
            ((i + k) mod spec.n_objects, spec.access_work))
      in
      let is_reader = i >= spec.n_tasks - spec.readers in
      if is_reader then
        Task.make ~id:i ~tuf ~arrival ~exec ~reads:accesses
          ~abort_cost:spec.abort_cost ()
      else
        Task.make ~id:i ~tuf ~arrival ~exec ~accesses
          ~abort_cost:spec.abort_cost ())

let actual_load = Task.approximate_load

let pp_spec fmt spec =
  Format.fprintf fmt
    "%d tasks, %d objects, AL=%.2f, %s TUFs, u~%dns, m=%d, burst=%d"
    spec.n_tasks spec.n_objects spec.target_al
    (match spec.tuf_class with
    | Step_only -> "step"
    | Heterogeneous -> "heterogeneous")
    spec.mean_exec spec.accesses_per_job spec.burst
