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
  orphans : int;
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
  Trace.iter (fun e -> last_time := max !last_time e.Trace.time) trace;
  let last_time = !last_time in
  (* Open-interval bookkeeping. [anchor] is the per-job start of the
     current access attempt: the last dispatch, wake, retry or segment
     boundary — the point from which a Retry/Access_done span runs. *)
  (* Per-core open running intervals (core -> jid, since); single-CPU
     traces only ever use core 0. *)
  let running_since = Hashtbl.create 4 in
  let block_since = Hashtbl.create 16 in
  let anchor = Hashtbl.create 16 in
  let tasks = Hashtbl.create 16 in
  let running = ref []
  and blocking = ref []
  and retries = ref []
  and accesses = ref []
  and sched = ref [] in
  (* Events whose matching open interval is missing — possible only
     when a ring buffer dropped the opening entry. Reconstruction
     degrades gracefully (zero-width or best-effort spans) and the
     count is surfaced so consumers know the spans are partial. *)
  let orphans = ref 0 in
  let set_anchor jid time = Hashtbl.replace anchor jid time in
  let attempt_span jid time =
    match Hashtbl.find_opt anchor jid with
    | Some since -> since
    | None ->
      incr orphans;
      time
  in
  let close_core core time =
    match Hashtbl.find_opt running_since core with
    | None -> ()
    | Some (jid, since) ->
      running :=
        { kind = Running; jid; obj = None; start = since; stop = time;
          ops = 0 }
        :: !running;
      Hashtbl.remove running_since core
  in
  let core_running jid =
    Hashtbl.fold
      (fun core (r, _) found ->
        match found with Some _ -> found | None -> if r = jid then Some core else None)
      running_since None
  in
  let close_running_jid jid time =
    match core_running jid with
    | Some core -> close_core core time
    | None -> ()
  in
  let close_block jid time =
    match Hashtbl.find_opt block_since jid with
    | None -> ()
    | Some (obj, since) ->
      blocking :=
        { kind = Blocking; jid; obj = Some obj; start = since; stop = time;
          ops = 0 }
        :: !blocking;
      Hashtbl.remove block_since jid
  in
  Trace.iter
    (fun { Trace.time; kind } ->
      match kind with
      | Trace.Arrive (jid, task, _) ->
        Hashtbl.replace tasks jid task;
        set_anchor jid time
      | Trace.Start (jid, core) ->
        close_core core time;
        close_running_jid jid time;
        Hashtbl.replace running_since core (jid, time);
        set_anchor jid time
      | Trace.Preempt (jid, _) ->
        (match core_running jid with
        | Some _ -> ()
        | None -> incr orphans);
        close_running_jid jid time
      | Trace.Block (jid, obj) ->
        (match core_running jid with
        | Some _ -> ()
        | None -> incr orphans);
        (* A spin-waiter burns on its core: its running span stays
           open until the grant resumes it or the expiry aborts it —
           but the historical (lock-based) reading closes the span at
           the block, which still holds there. *)
        close_running_jid jid time;
        Hashtbl.replace block_since jid (obj, time)
      | Trace.Wake (jid, _) ->
        if not (Hashtbl.mem block_since jid) then incr orphans;
        close_block jid time;
        set_anchor jid time
      | Trace.Retry (jid, obj, _, _) ->
        retries :=
          { kind = Retry; jid; obj = Some obj;
            start = attempt_span jid time; stop = time; ops = 0 }
          :: !retries;
        set_anchor jid time
      | Trace.Access_done (jid, obj) ->
        accesses :=
          { kind = Access; jid; obj = Some obj;
            start = attempt_span jid time; stop = time; ops = 0 }
          :: !accesses;
        set_anchor jid time
      | Trace.Complete jid | Trace.Abort (jid, _) ->
        (* Only close the running span when it belongs to the ending
           job: an expiry can abort a blocked/ready job while another
           job keeps the CPU (and gets no fresh [Start]). *)
        close_running_jid jid time;
        close_block jid time
      | Trace.Sched (ops, cost) ->
        sched :=
          { kind = Sched; jid = -1; obj = None; start = time;
            stop = time + cost; ops }
          :: !sched
      | Trace.Acquire _ | Trace.Release _ | Trace.Migrate _ -> ())
    trace;
  (* Close whatever the horizon cut off so exporters see no dangling
     intervals. *)
  Hashtbl.iter
    (fun _ (jid, since) ->
      running :=
        { kind = Running; jid; obj = None; start = since; stop = last_time;
          ops = 0 }
        :: !running)
    (Hashtbl.copy running_since);
  Hashtbl.reset running_since;
  Hashtbl.iter
    (fun jid (obj, since) ->
      blocking :=
        { kind = Blocking; jid; obj = Some obj; start = since;
          stop = last_time; ops = 0 }
        :: !blocking)
    block_since;
  {
    running = List.rev !running;
    blocking = List.rev !blocking;
    retries = List.rev !retries;
    accesses = List.rev !accesses;
    sched = List.rev !sched;
    task_of = tasks;
    last_time;
    orphans = !orphans;
  }

let task_of t ~jid = Hashtbl.find_opt t.task_of jid
