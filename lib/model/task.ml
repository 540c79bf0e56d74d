type t = {
  id : int;
  name : string;
  tuf : Tuf.t;
  arrival : Uam.t;
  exec : int;
  accesses : (int * int) list;
  reads : (int * int) list;
  abort_cost : int;
  profile : Segment.t list option;
}

let check_window tuf arrival =
  if Tuf.critical_time tuf > arrival.Uam.w then
    invalid_arg "Task.make: critical time exceeds arrival window (C <= W)"

let default_name name id =
  match name with Some n -> n | None -> "T" ^ string_of_int id

let make ~id ?name ~tuf ~arrival ~exec ?(accesses = []) ?(reads = [])
    ?(abort_cost = 0) () =
  if exec < 0 then invalid_arg "Task.make: negative exec";
  if abort_cost < 0 then invalid_arg "Task.make: negative abort_cost";
  List.iter
    (fun (obj, work) ->
      if obj < 0 then invalid_arg "Task.make: negative object id";
      if work < 0 then invalid_arg "Task.make: negative access work")
    (accesses @ reads);
  check_window tuf arrival;
  let name = default_name name id in
  {
    id; name; tuf; arrival; exec; accesses; reads; abort_cost;
    profile = None;
  }

let make_nested ~id ?name ~tuf ~arrival ~profile ?(abort_cost = 0) () =
  if abort_cost < 0 then invalid_arg "Task.make_nested: negative abort_cost";
  (match Segment.well_nested profile with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Task.make_nested: " ^ msg));
  check_window tuf arrival;
  let exec =
    List.fold_left
      (fun acc s ->
        match s with
        | Segment.Compute span -> acc + span
        | Segment.Access _ | Segment.Lock _ | Segment.Unlock _ -> acc)
      0 profile
  in
  let pick ~write =
    List.filter_map
      (function
        | Segment.Access { obj; work; write = w } when w = write ->
          Some (obj, work)
        | Segment.Access _ | Segment.Compute _ | Segment.Lock _
        | Segment.Unlock _ ->
          None)
      profile
  in
  let name = default_name name id in
  {
    id; name; tuf; arrival; exec;
    accesses = pick ~write:true;
    reads = pick ~write:false;
    abort_cost;
    profile = Some profile;
  }

let critical_time task = Tuf.critical_time task.tuf

let num_accesses task = List.length task.accesses + List.length task.reads

let segments task =
  match task.profile with
  | Some profile -> profile
  | None ->
    let tagged write = List.map (fun (o, w) -> (o, w, write)) in
    Segment.interleave_rw ~compute:task.exec
      ~accesses:(tagged true task.accesses @ tagged false task.reads)

let total_work task =
  let sum = List.fold_left (fun acc (_, w) -> acc + w) 0 in
  task.exec + sum task.accesses + sum task.reads

let utilization task =
  float_of_int task.exec /. float_of_int (critical_time task)

let approximate_load tasks =
  List.fold_left (fun acc task -> acc +. utilization task) 0.0 tasks
