module Trace = Rtlf_sim.Trace

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
  (* The first entry's time: a trace is in time order. *)
  let origin =
    let exception First of int in
    try
      Trace.iter (fun e -> raise_notrace (First e.Trace.time)) trace;
      invalid_arg "Timeline.build: empty trace"
    with First time -> time
  in
  let spans = Spans.of_trace trace in
  let span = max 1 (spans.last_time - origin) in
  let bucket_ns = max 1 ((span + buckets - 1) / buckets) in
  let col time = min (buckets - 1) ((time - origin) / bucket_ns) in
  (* One row per job, in the order of the first entry about it. *)
  let rows = Hashtbl.create 32 and order = ref [] in
  let row jid =
    match Hashtbl.find_opt rows jid with
    | Some cells -> cells
    | None ->
      let cells = Array.make buckets Idle in
      Hashtbl.add rows jid cells;
      order := jid :: !order;
      cells
  in
  let mark jid time cell =
    let cells = row jid and c = col time in
    cells.(c) <- merge cells.(c) cell
  in
  Trace.iter
    (fun { Trace.time; kind } ->
      match kind with
      | Trace.Block (jid, _) -> mark jid time Blocked
      | Trace.Retry (jid, _, _, _) -> mark jid time Retried
      | Trace.Complete jid -> mark jid time Done
      | Trace.Abort (jid, _) -> mark jid time Killed
      | Trace.Arrive (jid, _, _)
      | Trace.Start (jid, _)
      | Trace.Migrate (jid, _, _)
      | Trace.Preempt (jid, _)
      | Trace.Wake (jid, _)
      | Trace.Acquire (jid, _)
      | Trace.Release (jid, _)
      | Trace.Access_done (jid, _) ->
        ignore (row jid)
      | Trace.Sched _ -> ())
    trace;
  List.iter
    (fun (s : Spans.span) ->
      let cells = row s.jid in
      for c = col s.start to col s.stop do
        cells.(c) <- merge cells.(c) Run
      done)
    spans.running;
  let all = List.rev !order in
  {
    bucket_ns;
    origin;
    rows =
      List.filteri (fun i _ -> i < max_jobs) all
      |> List.map (fun jid ->
             let label = Printf.sprintf "J%-4d" jid in
             { jid; label; cells = Hashtbl.find rows jid });
    truncated = max 0 (List.length all - max_jobs);
  }

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
