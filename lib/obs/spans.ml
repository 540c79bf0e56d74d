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
  let w = Trace.walk () in
  let last_time = ref 0 in
  (* Start times: of each job's dispatch and of its wait. *)
  let run_since = Hashtbl.create 16 and block_since = Hashtbl.create 16 in
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
  let close_running jid time =
    match Trace.find w jid with
    | Some j when j.core >= 0 ->
      running :=
        span Running jid None (Hashtbl.find run_since jid) time :: !running
    | _ -> ()
  in
  (* A job in [block_since] waits on an object, read before the entry
     that ends the wait is stepped. *)
  let block_span jid since time =
    let obj = (Option.get (Trace.find w jid)).waits_on in
    blocking := span Blocking jid (Some obj) since time :: !blocking
  in
  let close_block jid time =
    Option.iter
      (fun since ->
        block_span jid since time;
        Hashtbl.remove block_since jid)
      (Hashtbl.find_opt block_since jid)
  in
  (* Without its opening entry (a ring buffer dropped it) an attempt
     is zero-width. *)
  let attempt kind jid obj time =
    let since = Option.value (Hashtbl.find_opt anchor jid) ~default:time in
    Hashtbl.replace anchor jid time;
    span kind jid (Some obj) since time
  in
  Trace.iter
    (fun ({ Trace.time; kind } as e) ->
      last_time := max !last_time time;
      (match kind with
      | Trace.Arrive (jid, task, _) ->
        Hashtbl.replace tasks jid task;
        Hashtbl.replace anchor jid time
      | Trace.Start (jid, core) ->
        let o = Trace.occupant w ~core in
        if o >= 0 && o <> jid then close_running o time;
        close_running jid time;
        Hashtbl.replace run_since jid time;
        Hashtbl.replace anchor jid time
      | Trace.Preempt (jid, _) -> close_running jid time
      | Trace.Block (jid, _) ->
        (* Without a discipline a [Block] vacates the core, so a
           spin-waiter's running span closes at its block too. *)
        close_running jid time;
        Hashtbl.replace block_since jid time
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
      | Trace.Acquire _ | Trace.Release _ | Trace.Migrate _ -> ());
      Trace.step w e)
    trace;
  (* Close whatever the horizon cut off so exporters see no dangling
     intervals, running spans in core order. *)
  let last_time = !last_time in
  List.iter (fun (_, jid) -> close_running jid last_time) (Trace.occupants w);
  Hashtbl.iter (fun jid since -> block_span jid since last_time) block_since;
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
