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
  running : Job.t array; (* [Job.dummy] marks an idle core *)
  busy : int array; (* per-core executed ns (incl. spin burn) *)
  mutable migrations : int;
  queues : Run_queue.t array; (* length [m] when partitioned, else 0 *)
}

let create ~m ~policy =
  if m < 1 then invalid_arg "Cores.create: need at least one core";
  {
    m;
    policy;
    running = Array.make m Job.dummy;
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

let rec scan t jid c =
  if c >= t.m then -1
  else if t.running.(c).Job.jid = jid then c
  else scan t jid (c + 1)

let core_of t ~jid = scan t jid 0

let vacate t ~jid =
  let c = core_of t ~jid in
  if c >= 0 then t.running.(c) <- Job.dummy

let place t c job = t.running.(c) <- job

let any_running t = Array.exists (fun j -> j != Job.dummy) t.running

let note_migration t = t.migrations <- t.migrations + 1

let queues t = t.queues

let busy t = t.busy

let migrations t = t.migrations
