module Job = Rtlf_model.Job

type decision = {
  mutable jobs : Job.t array;
  mutable dispatch : int;
  mutable aborts : Job.t list;
  mutable rejected : int array;
  mutable n_rejected : int;
  mutable schedule : int array;
  mutable length : int;
  mutable ops : int;
}

type t = {
  name : string;
  decide :
    now:int ->
    jobs:Job.t array ->
    remaining:(Job.t -> int) ->
    decision;
}

let create_decision () =
  {
    jobs = [||];
    dispatch = -1;
    aborts = [];
    rejected = [||];
    n_rejected = 0;
    schedule = [||];
    length = 0;
    ops = 0;
  }

let set_schedule_capacity d n =
  d.schedule <- Scratch.ensure n d.schedule;
  d.rejected <- Scratch.ensure n d.rejected

let dispatch_first_runnable d =
  let i = ref 0 in
  while !i < d.length && not (Job.is_runnable d.jobs.(d.schedule.(!i))) do
    incr i
  done;
  d.dispatch <- (if !i < d.length then d.schedule.(!i) else -1)

let position jobs j =
  let rec go i =
    if i >= Array.length jobs then
      invalid_arg "Scheduler.of_lists: scheduled job not in jobs"
    else if jobs.(i) == j then i
    else go (i + 1)
  in
  go 0

let of_lists ~jobs ~aborts ~rejected ~schedule ~ops =
  let d =
    {
      jobs;
      dispatch = -1;
      aborts;
      rejected = Array.of_list rejected;
      n_rejected = List.length rejected;
      schedule = Array.of_list (List.map (position jobs) schedule);
      length = List.length schedule;
      ops;
    }
  in
  dispatch_first_runnable d;
  d

let dispatched d = if d.dispatch < 0 then None else Some d.jobs.(d.dispatch)

let schedule_list d =
  List.init d.length (fun i -> d.jobs.(d.schedule.(i)))

let rejected_list d = List.init d.n_rejected (fun i -> d.rejected.(i))
