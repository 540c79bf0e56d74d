module Task = Rtlf_model.Task
module Uam = Rtlf_model.Uam

let find_task tasks i =
  match List.find_opt (fun t -> t.Task.id = i) tasks with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Retry_bound: no task with id %d" i)

let ceil_div num den = (num + den - 1) / den

let x_i ~tasks ~i =
  let ti = find_task tasks i in
  let ci = Task.critical_time ti in
  List.fold_left
    (fun acc tj ->
      if tj.Task.id = i then acc
      else
        let aj = tj.Task.arrival.Uam.a and wj = tj.Task.arrival.Uam.w in
        acc + (aj * (ceil_div ci wj + 1)))
    0 tasks

let bound ~tasks ~i =
  let ti = find_task tasks i in
  let ai = ti.Task.arrival.Uam.a in
  (3 * ai) + (2 * x_i ~tasks ~i)

let n_i_upper_bound ~tasks ~i =
  let ti = find_task tasks i in
  let ai = ti.Task.arrival.Uam.a in
  (2 * ai) + x_i ~tasks ~i
