module Job = Rtlf_model.Job
module Task = Rtlf_model.Task

type policy = Global | Partitioned

let policy_name = function Global -> "global" | Partitioned -> "partitioned"

(* A per-core run queue is the same structure as the engine's global
   live set: a cached jid-sorted view feeding that core's scheduler
   instance. Partitioned dispatch keeps one per core; global dispatch
   keeps none (one scheduler reads the global live view directly). *)
module Run_queue = Live_view

type t = {
  m : int;
  policy : policy;
  running : Job.t option array;
  busy : int array; (* per-core executed ns (incl. spin burn) *)
  mutable migrations : int;
  queues : Run_queue.t array; (* length [m] when partitioned, else 0 *)
}

let create ~m ~policy =
  if m < 1 then invalid_arg "Cores.create: need at least one core";
  {
    m;
    policy;
    running = Array.make m None;
    busy = Array.make m 0;
    migrations = 0;
    queues =
      (match policy with
      | Partitioned -> Array.init m (fun _ -> Run_queue.create ())
      | Global -> [||]);
  }

let count t = t.m

let home t job = job.Job.task.Task.id mod t.m

let admit t job =
  match t.policy with
  | Partitioned -> Run_queue.add t.queues.(home t job) job
  | Global -> ()

let retire t job =
  match t.policy with
  | Partitioned -> Run_queue.remove t.queues.(home t job) ~jid:job.Job.jid
  | Global -> ()

let occupant t c = t.running.(c)

let core_of t ~jid =
  let rec go c =
    if c >= t.m then None
    else
      match t.running.(c) with
      | Some j when j.Job.jid = jid -> Some c
      | _ -> go (c + 1)
  in
  go 0

let vacate t ~jid =
  match core_of t ~jid with None -> () | Some c -> t.running.(c) <- None

let place t c job = t.running.(c) <- Some job

let any_running t = Array.exists Option.is_some t.running

let note_migration t = t.migrations <- t.migrations + 1

let queues t = t.queues

let busy t = t.busy

let migrations t = t.migrations
