module Trace = Rtlf_sim.Trace

type kind = Running | Blocking | Retry | Access | Sched

type span = {
  kind : kind;
  jid : int;
  obj : int option;
  start : int;
  stop : int;
  ops : int;
}

type t = {
  running : span list;
  blocking : span list;
  retries : span list;
  accesses : span list;
  sched : span list;
  task_of : (int, int) Hashtbl.t;
  last_time : int;
}

let kind_name = function
  | Running -> "running"
  | Blocking -> "blocked"
  | Retry -> "retry"
  | Access -> "access"
  | Sched -> "sched"

let duration s = s.stop - s.start

let of_trace trace =
  let last_time = ref 0 in
  (* [on.(core)] is the job occupying [core], its dispatch time and
     the dispatching entry's index; the array grows at the first
     [Start] on a new core. *)
  let on = ref [||] and index = ref 0 in
  let block_since = Hashtbl.create 16 in
  (* Per-job start of the current access attempt: the last dispatch,
     wake, retry or segment boundary — where a Retry/Access_done span
     begins. *)
  let anchor = Hashtbl.create 16 in
  let tasks = Hashtbl.create 16 in
  let running = ref []
  and blocking = ref []
  and retries = ref []
  and accesses = ref []
  and sched = ref [] in
  let span kind jid obj start stop =
    { kind; jid; obj; start; stop; ops = 0 }
  in
  let close_core core time =
    match !on.(core) with
    | None -> ()
    | Some (jid, since, _) ->
      running := span Running jid None since time :: !running;
      !on.(core) <- None
  in
  (* A job occupies at most one core. *)
  let close_running jid time =
    let on_core = function Some (j, _, _) -> j = jid | None -> false in
    Option.iter (fun core -> close_core core time)
      (Array.find_index on_core !on)
  in
  let close_block jid time =
    match Hashtbl.find_opt block_since jid with
    | None -> ()
    | Some (obj, since) ->
      blocking := span Blocking jid (Some obj) since time :: !blocking;
      Hashtbl.remove block_since jid
  in
  (* Without its opening entry (a ring buffer dropped it) an attempt
     is zero-width. *)
  let attempt kind jid obj time =
    let since = Option.value (Hashtbl.find_opt anchor jid) ~default:time in
    Hashtbl.replace anchor jid time;
    span kind jid (Some obj) since time
  in
  Trace.iter
    (fun { Trace.time; kind } ->
      last_time := max !last_time time;
      incr index;
      match kind with
      | Trace.Arrive (jid, task, _) ->
        Hashtbl.replace tasks jid task;
        Hashtbl.replace anchor jid time
      | Trace.Start (jid, core) ->
        let n = Array.length !on in
        if core >= n then
          on := Array.append !on (Array.make (core + 1 - n) None);
        close_core core time;
        close_running jid time;
        !on.(core) <- Some (jid, time, !index);
        Hashtbl.replace anchor jid time
      | Trace.Preempt (jid, _) -> close_running jid time
      | Trace.Block (jid, obj) ->
        (* A spin-waiter keeps burning its core, but the historical
           (lock-based) reading closes the running span at the block. *)
        close_running jid time;
        Hashtbl.replace block_since jid (obj, time)
      | Trace.Wake (jid, _) ->
        close_block jid time;
        Hashtbl.replace anchor jid time
      | Trace.Retry (jid, obj, _, _) ->
        retries := attempt Retry jid obj time :: !retries
      | Trace.Access_done (jid, obj) ->
        accesses := attempt Access jid obj time :: !accesses
      | Trace.Complete jid | Trace.Abort (jid, _) ->
        (* An expiry can abort a blocked or ready job while another
           keeps its core, so only the ending job's span closes. *)
        close_running jid time;
        close_block jid time
      | Trace.Sched (ops, cost) ->
        sched :=
          { kind = Sched; jid = -1; obj = None; start = time;
            stop = time + cost; ops }
          :: !sched
      | Trace.Acquire _ | Trace.Release _ | Trace.Migrate _ -> ())
    trace;
  (* Close whatever the horizon cut off so exporters see no dangling
     intervals. Running spans close in the order of a core-keyed
     [Hashtbl] filled in dispatch order, the order the Chrome export
     has always listed them in. *)
  let last_time = !last_time in
  let cut = ref [] and by_core = Hashtbl.create 16 in
  Array.iteri
    (fun core ->
      Option.iter (fun (jid, since, i) -> cut := (i, core, jid, since) :: !cut))
    !on;
  List.iter
    (fun (_, core, jid, since) -> Hashtbl.replace by_core core (jid, since))
    (List.sort compare !cut);
  Hashtbl.iter
    (fun _ (jid, since) ->
      running := span Running jid None since last_time :: !running)
    by_core;
  Hashtbl.iter
    (fun jid (obj, since) ->
      blocking := span Blocking jid (Some obj) since last_time :: !blocking)
    block_since;
  {
    running = List.rev !running;
    blocking = List.rev !blocking;
    retries = List.rev !retries;
    accesses = List.rev !accesses;
    sched = List.rev !sched;
    task_of = tasks;
    last_time;
  }

let task_of t ~jid = Hashtbl.find_opt t.task_of jid
