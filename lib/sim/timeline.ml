type cell = Idle | Run | Blocked | Retried | Done | Killed

type row = { jid : int; label : string; cells : cell array }

type t = { bucket_ns : int; origin : int; rows : row list; truncated : int }

(* Priority when several events land in one bucket: terminal states
   beat retries beat blocking beats running. *)
let rank = function
  | Idle -> 0
  | Run -> 1
  | Blocked -> 2
  | Retried -> 3
  | Done -> 4
  | Killed -> 5

let merge a b = if rank b > rank a then b else a

let build ?(buckets = 72) ?(max_jobs = 20) trace =
  if buckets <= 0 then invalid_arg "Timeline.build: buckets must be positive";
  if max_jobs <= 0 then invalid_arg "Timeline.build: max_jobs must be positive";
  if Trace.length trace = 0 then invalid_arg "Timeline.build: empty trace";
  let origin = ref max_int and finish = ref min_int in
  Trace.iter
    (fun e ->
      origin := min !origin e.Trace.time;
      finish := max !finish e.Trace.time)
    trace;
  let origin = !origin and finish = !finish in
  let span = max 1 (finish - origin) in
  let bucket_ns = max 1 ((span + buckets - 1) / buckets) in
  let col time = min (buckets - 1) ((time - origin) / bucket_ns) in
  (* Collect jobs in arrival order. *)
  let jobs = Hashtbl.create 32 in
  let order = ref [] in
  let touch jid =
    if not (Hashtbl.mem jobs jid) then begin
      Hashtbl.replace jobs jid (Array.make buckets Idle);
      order := jid :: !order
    end;
    Hashtbl.find jobs jid
  in
  let mark jid time cell =
    let cells = touch jid in
    let c = col time in
    cells.(c) <- merge cells.(c) cell
  in
  (* Running intervals: remember dispatch time per core; close a
     core's interval on the occupant's preempt/block/complete/abort or
     on another job's start on that core. *)
  let running = Hashtbl.create 4 in
  let paint jid since time =
    let cells = touch jid in
    for c = col since to col time do
      cells.(c) <- merge cells.(c) Run
    done
  in
  let close_core core time =
    match Hashtbl.find_opt running core with
    | None -> ()
    | Some (jid, since) ->
      paint jid since time;
      Hashtbl.remove running core
  in
  let close_jid jid time =
    Hashtbl.iter
      (fun core (j, _) -> if j = jid then close_core core time)
      (Hashtbl.copy running)
  in
  let close_all time =
    Hashtbl.iter (fun _ (jid, since) -> paint jid since time) running;
    Hashtbl.reset running
  in
  Trace.iter
    (fun { Trace.time; kind } ->
      match kind with
      | Trace.Arrive (jid, _, _) -> ignore (touch jid)
      | Trace.Start (jid, core) ->
        close_core core time;
        close_jid jid time;
        Hashtbl.replace running core (jid, time)
      | Trace.Preempt (jid, _) -> close_jid jid time
      | Trace.Block (jid, _) ->
        close_jid jid time;
        mark jid time Blocked
      | Trace.Wake (jid, _) -> ignore (touch jid)
      | Trace.Retry (jid, _, _, _) -> mark jid time Retried
      | Trace.Complete jid ->
        close_jid jid time;
        mark jid time Done
      | Trace.Abort (jid, _) ->
        close_jid jid time;
        mark jid time Killed
      | Trace.Acquire _ | Trace.Release _ | Trace.Access_done _
      | Trace.Sched _ | Trace.Migrate _ ->
        ())
    trace;
  close_all finish;
  let all = List.rev !order in
  let total = List.length all in
  let rows =
    all
    |> List.filteri (fun i _ -> i < max_jobs)
    |> List.map (fun jid ->
           {
             jid;
             label = Printf.sprintf "J%-4d" jid;
             cells = Hashtbl.find jobs jid;
           })
  in
  { bucket_ns; origin; rows; truncated = max 0 (total - max_jobs) }

let cell_char = function
  | Idle -> '.'
  | Run -> '#'
  | Blocked -> 'b'
  | Retried -> 'r'
  | Done -> 'C'
  | Killed -> 'X'

let render timeline =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "timeline: origin=%dns bucket=%dns  (#=run b=blocked r=retry \
        C=complete X=abort)\n"
       timeline.origin timeline.bucket_ns);
  List.iter
    (fun row ->
      Buffer.add_string buf row.label;
      Buffer.add_char buf ' ';
      Array.iter (fun c -> Buffer.add_char buf (cell_char c)) row.cells;
      Buffer.add_char buf '\n')
    timeline.rows;
  if timeline.truncated > 0 then
    Buffer.add_string buf
      (Printf.sprintf "… +%d job(s) beyond max_jobs\n" timeline.truncated);
  Buffer.contents buf
