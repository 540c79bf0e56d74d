module Trace = Rtlf_sim.Trace

(* Chrome trace-event timestamps are microseconds (floats); the
   simulator's clock is integer ns. *)
let us ns = float_of_int ns /. 1000.0

let pid = 0

(* Lane (tid) assignment: one lane per task, plus a scheduler lane
   numbered past the largest task id. Jobs whose arrival fell outside
   a ring-buffered trace window have no task mapping; they share a
   dedicated "unattributed" lane before the scheduler's. *)
let lanes spans =
  let max_task =
    Hashtbl.fold (fun _ task acc -> max acc task) spans.Spans.task_of (-1)
  in
  let unattributed = max_task + 1 in
  let scheduler = max_task + 2 in
  let of_jid jid =
    match Spans.task_of spans ~jid with
    | Some task -> task
    | None -> unattributed
  in
  (of_jid, unattributed, scheduler)

let thread_meta ~tid ~name =
  Json.Obj
    [
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("name", Json.Str "thread_name");
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let complete_event ~tid ~name ~start ~stop ~args =
  Json.Obj
    [
      ("ph", Json.Str "X");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("name", Json.Str name);
      ("ts", Json.Float (us start));
      ("dur", Json.Float (us (stop - start)));
      ("args", Json.Obj args);
    ]

let instant_event ~tid ~name ~time ~args =
  Json.Obj
    [
      ("ph", Json.Str "i");
      ("s", Json.Str "t");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("name", Json.Str name);
      ("ts", Json.Float (us time));
      ("args", Json.Obj args);
    ]

let counter_event ~name ~time ~value =
  Json.Obj
    [
      ("ph", Json.Str "C");
      ("pid", Json.Int pid);
      ("name", Json.Str name);
      ("ts", Json.Float (us time));
      ("args", Json.Obj [ ("value", Json.Int value) ]);
    ]

(* Flow events ("ph":"s"/"f") draw arrows between lanes. Perfetto
   binds each endpoint to the slice enclosing its timestamp, so the
   start sits on the culprit's lane and the finish on the victim's. *)
let flow_event ~ph ~tid ~id ~name ~time =
  Json.Obj
    (("ph", Json.Str ph)
     :: (if ph = "f" then [ ("bp", Json.Str "e") ] else [])
    @ [
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("id", Json.Int id);
        ("cat", Json.Str "blame");
        ("name", Json.Str name);
        ("ts", Json.Float (us time));
      ])

let span_name (s : Spans.span) =
  match s.Spans.obj with
  | Some obj -> Printf.sprintf "%s o%d" (Spans.kind_name s.Spans.kind) obj
  | None -> Spans.kind_name s.Spans.kind

let events trace =
  let spans = Spans.of_trace trace in
  let lane_of, unattributed, sched_lane = lanes spans in
  let tasks =
    List.sort_uniq compare
      (Hashtbl.fold (fun _ task acc -> task :: acc) spans.Spans.task_of [])
  in
  let meta =
    List.map
      (fun task -> thread_meta ~tid:task ~name:(Printf.sprintf "task %d" task))
      tasks
    @ [ thread_meta ~tid:unattributed ~name:"unattributed" ]
    @ [ thread_meta ~tid:sched_lane ~name:"scheduler" ]
  in
  let job_span (s : Spans.span) =
    let args =
      ("jid", Json.Int s.Spans.jid)
      ::
      (match s.Spans.obj with
      | Some obj -> [ ("obj", Json.Int obj) ]
      | None -> [])
    in
    complete_event ~tid:(lane_of s.Spans.jid) ~name:(span_name s)
      ~start:s.Spans.start ~stop:s.Spans.stop ~args
  in
  let sched_span (s : Spans.span) =
    complete_event ~tid:sched_lane ~name:"sched" ~start:s.Spans.start
      ~stop:s.Spans.stop
      ~args:
        [
          ("ops", Json.Int s.Spans.ops);
          ("cost_ns", Json.Int (Spans.duration s));
        ]
  in
  let durations =
    List.concat
      [
        List.map job_span spans.Spans.running;
        List.map job_span spans.Spans.blocking;
        List.map job_span spans.Spans.retries;
        List.map job_span spans.Spans.accesses;
        List.map sched_span spans.Spans.sched;
      ]
  in
  (* One walk emits three families, each in trace order:

     - instants for arrivals, preemptions, wakes, completions, aborts;
     - counter tracks of cumulative lock-free retries, per object and in
       total: each [Retry] bumps its object's count and emits a sample,
       so Perfetto draws retry pressure as a staircase aligned with the
       job lanes;
     - blame flows, one arrow per causal hand-off: from the holder's
       lane at a [Block] on an object it holds to the victim's at its
       [Wake] (or its end, for a waiter that aborts while parked), and
       from an invalidator's lane at its last committed access to the
       object, when traced, to the victim's at the [Retry]. *)
  let instants = ref [] and counters = ref [] and flows = ref [] in
  let per_obj = Hashtbl.create 8 and total = ref 0 in
  let next_id = ref 0 in
  let holder = Hashtbl.create 16 in (* obj -> jid *)
  let pending = Hashtbl.create 16 in (* victim jid -> (id, name) *)
  let last_commit = Hashtbl.create 16 in (* (jid, obj) -> time *)
  let flow ph jid id name time =
    flows := flow_event ~ph ~tid:(lane_of jid) ~id ~name ~time :: !flows
  in
  let finish_pending jid time =
    match Hashtbl.find_opt pending jid with
    | None -> ()
    | Some (id, name) ->
      flow "f" jid id name time;
      Hashtbl.remove pending jid
  in
  Trace.iter
    (fun { Trace.time; kind } ->
      let inst jid name extra =
        instants :=
          instant_event ~tid:(lane_of jid) ~name ~time
            ~args:(("jid", Json.Int jid) :: extra)
          :: !instants
      in
      match kind with
      | Trace.Arrive (jid, task, at) ->
        inst jid "arrive" [ ("task", Json.Int task); ("at", Json.Int at) ]
      | Trace.Preempt (jid, by) ->
        inst jid "preempt" (if by >= 0 then [ ("by", Json.Int by) ] else [])
      | Trace.Wake (jid, obj) ->
        inst jid "wake" [ ("obj", Json.Int obj) ];
        finish_pending jid time
      | Trace.Complete jid ->
        inst jid "complete" [];
        finish_pending jid time
      | Trace.Abort (jid, handler) ->
        inst jid "abort" [ ("handler_ns", Json.Int handler) ];
        finish_pending jid time
      | Trace.Acquire (jid, obj) -> Hashtbl.replace holder obj jid
      | Trace.Release (_, obj) -> Hashtbl.remove holder obj
      | Trace.Block (jid, obj) ->
        Option.iter
          (fun h ->
            incr next_id;
            let name = Printf.sprintf "blocks o%d" obj in
            flow "s" h !next_id name time;
            Hashtbl.replace pending jid (!next_id, name))
          (Hashtbl.find_opt holder obj)
      | Trace.Access_done (jid, obj) ->
        Hashtbl.replace last_commit (jid, obj) time
      | Trace.Retry (jid, obj, by, _) ->
        let n = 1 + Option.value (Hashtbl.find_opt per_obj obj) ~default:0 in
        Hashtbl.replace per_obj obj n;
        incr total;
        counters :=
          counter_event ~name:"retries (total)" ~time ~value:!total
          :: counter_event ~name:(Printf.sprintf "retries o%d" obj) ~time
               ~value:n
          :: !counters;
        if by >= 0 then begin
          incr next_id;
          let name = Printf.sprintf "invalidates o%d" obj in
          let start =
            match Hashtbl.find_opt last_commit (by, obj) with
            | Some t when t <= time -> t
            | Some _ | None -> time
          in
          flow "s" by !next_id name start;
          flow "f" jid !next_id name time
        end
      | Trace.Start _ | Trace.Sched _ | Trace.Migrate _ -> ())
    trace;
  meta @ durations @ List.rev !instants @ List.rev !counters
  @ List.rev !flows

let to_string trace = Json.lines_to_string (events trace)

let write_file ~path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string trace))
