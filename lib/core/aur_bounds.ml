module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam

type band = { lower : float; upper : float }

let ceil_div num den = (num + den - 1) / den

let interference_estimate ~tasks ~i ~per_job_cost =
  let ti =
    match List.find_opt (fun t -> t.Task.id = i) tasks with
    | Some t -> t
    | None -> invalid_arg "Aur_bounds: unknown task id"
  in
  let ci = Task.critical_time ti in
  let total =
    List.fold_left
      (fun acc tj ->
        if tj.Task.id = i then acc
        else
          let aj = tj.Task.arrival.Uam.a and wj = tj.Task.arrival.Uam.w in
          acc +. (float_of_int (aj * (ceil_div ci wj + 1)) *. per_job_cost tj))
      0.0 tasks
  in
  Float.min total (float_of_int ci)

(* Shared band computation: [best t] and [worst t] give the two sojourn
   estimates per task; weights are lᵢ/Wᵢ (lower) and aᵢ/Wᵢ (upper). *)
let band ~tasks ~best ~worst =
  let ratio weight sojourn =
    let num, den =
      List.fold_left
        (fun (num, den) t ->
          let w = weight t in
          let u_at =
            Tuf.utility t.Task.tuf ~at:(int_of_float (sojourn t))
          in
          let u0 = Tuf.initial_utility t.Task.tuf in
          (num +. (w *. u_at), den +. (w *. u0)))
        (0.0, 0.0) tasks
    in
    if den = 0.0 then 0.0 else num /. den
  in
  let weight_lower t =
    float_of_int t.Task.arrival.Uam.l /. float_of_int t.Task.arrival.Uam.w
  in
  let weight_upper t =
    float_of_int t.Task.arrival.Uam.a /. float_of_int t.Task.arrival.Uam.w
  in
  { lower = ratio weight_lower worst; upper = ratio weight_upper best }

let lock_free ~tasks ~s ?interference () =
  let best t =
    float_of_int t.Task.exec +. (s *. float_of_int (Task.num_accesses t))
  in
  let interference =
    match interference with
    | Some f -> f
    | None ->
      fun i -> interference_estimate ~tasks ~i ~per_job_cost:best
  in
  let worst t =
    let retry =
      s *. float_of_int (Retry_bound.bound ~tasks ~i:t.Task.id)
    in
    best t +. interference t.Task.id +. retry
  in
  band ~tasks ~best ~worst

let lock_based ~tasks ~r ?interference () =
  let best t =
    float_of_int t.Task.exec +. (r *. float_of_int (Task.num_accesses t))
  in
  let interference =
    match interference with
    | Some f -> f
    | None ->
      fun i -> interference_estimate ~tasks ~i ~per_job_cost:best
  in
  let worst t =
    let n_i = Retry_bound.n_i_upper_bound ~tasks ~i:t.Task.id in
    let blocking = r *. float_of_int (min (Task.num_accesses t) n_i) in
    best t +. interference t.Task.id +. blocking
  in
  band ~tasks ~best ~worst

let contains ?(eps = 0.01) b v =
  b.lower -. eps <= v && v <= b.upper +. eps
