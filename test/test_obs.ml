(* Observability layer: histogram/percentile statistics, bounded
   traces, contention counters, span reconstruction, and golden-file
   checks of the Chrome trace-event and CSV exporters. *)

module Stats = Rtlf_engine.Stats
module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Sync = Rtlf_sim.Sync
module Trace = Rtlf_sim.Trace
module Contention = Rtlf_sim.Contention
module Simulator = Rtlf_sim.Simulator
module Json = Rtlf_obs.Json
module Spans = Rtlf_obs.Spans
module Chrome_trace = Rtlf_obs.Chrome_trace
module Csv_export = Rtlf_obs.Csv_export
module Result_json = Rtlf_obs.Result_json

(* --- Stats: percentile_opt and histograms ----------------------------- *)

let test_percentile_opt () =
  Alcotest.(check (option (float 1e-9))) "empty" None
    (Stats.percentile_opt [||] ~p:50.0);
  Alcotest.(check (option (float 1e-9))) "median" (Some 2.0)
    (Stats.percentile_opt [| 3.0; 1.0; 2.0 |] ~p:50.0);
  Alcotest.(check (option (float 1e-9))) "max" (Some 3.0)
    (Stats.percentile_opt [| 3.0; 1.0; 2.0 |] ~p:100.0)

let test_histogram_empty () =
  let h = Stats.histogram [||] in
  Alcotest.(check int) "n" 0 h.Stats.n;
  Alcotest.(check bool) "nan mean" true (Float.is_nan h.Stats.mean);
  Alcotest.(check int) "no buckets" 0 (Array.length h.Stats.buckets)

let test_histogram_buckets () =
  let h = Stats.histogram ~bins:4 [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "n" 5 h.Stats.n;
  Alcotest.(check (float 1e-9)) "lo" 0.0 h.Stats.bucket_lo;
  Alcotest.(check (float 1e-9)) "width" 1.0 h.Stats.bucket_width;
  (* 4.0 is clamped into the last bucket. *)
  Alcotest.(check (list int)) "counts" [ 1; 1; 1; 2 ]
    (Array.to_list h.Stats.buckets);
  Alcotest.(check (float 1e-9)) "p50" 2.0 h.Stats.p50;
  Alcotest.(check bool) "p90 <= max" true (h.Stats.p90 <= h.Stats.max)

let test_histogram_degenerate () =
  (* All samples equal: span is zero, everything in one bucket. *)
  let h = Stats.histogram ~bins:3 [| 5.0; 5.0; 5.0 |] in
  Alcotest.(check int) "n" 3 h.Stats.n;
  Alcotest.(check int) "all in one bucket" 3
    (Array.fold_left max 0 h.Stats.buckets)

let test_histogram_invalid_bins () =
  Alcotest.check_raises "bins=0" (Invalid_argument "Stats.histogram: bins must be positive")
    (fun () -> ignore (Stats.histogram ~bins:0 [| 1.0 |]))

let test_histogram_render () =
  let h = Stats.histogram ~bins:2 [| 1.0; 1.0; 1.0; 2.0 |] in
  let out = Format.asprintf "%a" Stats.pp_histogram h in
  Alcotest.(check bool) "summary line" true
    (String.length out > 0
    && String.sub out 0 4 = "n=4 ");
  (* Modal bucket renders the full bar width. *)
  Alcotest.(check bool) "full bar present" true
    (let bar = String.make Stats.bar_width '#' in
     let rec contains i =
       i + String.length bar <= String.length out
       && (String.sub out i (String.length bar) = bar || contains (i + 1))
     in
     contains 0)

(* --- Trace ring buffer ------------------------------------------------- *)

let test_ring_buffer_drops_oldest () =
  let t = Trace.create ~capacity:4 ~enabled:true () in
  for i = 0 to 9 do
    Trace.record t ~time:i (Trace.Complete i)
  done;
  let es = Trace.entries t in
  Alcotest.(check int) "retains capacity" 4 (List.length es);
  Alcotest.(check int) "dropped" 6 (Trace.dropped t);
  Alcotest.(check (list int)) "newest suffix, chronological"
    [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Trace.time) es);
  Alcotest.(check (option int)) "capacity" (Some 4) (Trace.capacity t)

let test_ring_buffer_under_capacity () =
  let t = Trace.create ~capacity:8 ~enabled:true () in
  Trace.record t ~time:1 (Trace.Complete 0);
  Trace.record t ~time:2 (Trace.Complete 1);
  Alcotest.(check int) "len" 2 (List.length (Trace.entries t));
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped t)

let test_unbounded_never_drops () =
  let t = Trace.create ~enabled:true () in
  for i = 0 to 99 do
    Trace.record t ~time:i (Trace.Preempt (i, -1))
  done;
  Alcotest.(check int) "all kept" 100 (List.length (Trace.entries t));
  Alcotest.(check int) "dropped" 0 (Trace.dropped t);
  Alcotest.(check (option int)) "capacity" None (Trace.capacity t)

let test_invalid_capacity () =
  Alcotest.check_raises "capacity=0"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Trace.create ~capacity:0 ~enabled:true ()))

(* Entry [i] is recorded at time [i]; [iter], [entries] and [length]
   must all read back [first .. first + n - 1] in order. *)
let check_times msg t ~first ~n =
  let want = List.init n (fun i -> first + i) in
  Alcotest.(check int) (msg ^ " length") n (Trace.length t);
  Alcotest.(check (list int)) (msg ^ " entries") want
    (List.map (fun e -> e.Trace.time) (Trace.entries t));
  let seen = ref [] in
  Trace.iter (fun e -> seen := e.Trace.time :: !seen) t;
  Alcotest.(check (list int)) (msg ^ " iter") want (List.rev !seen)

let record_times t ~from ~upto =
  for i = from to upto - 1 do
    Trace.record t ~time:i (Trace.Complete i)
  done

(* An unbounded trace read back across chunk boundaries: one short of a
   chunk, exactly one, one past, and into a fourth chunk. *)
let test_unbounded_across_chunks () =
  let c = Trace.chunk_size in
  List.iter
    (fun n ->
      let t = Trace.create ~enabled:true () in
      record_times t ~from:0 ~upto:n;
      check_times (Printf.sprintf "n=%d" n) t ~first:0 ~n;
      Alcotest.(check int) "dropped" 0 (Trace.dropped t);
      Alcotest.(check (option int)) "capacity" None (Trace.capacity t))
    [ c - 1; c; c + 1; (3 * c) + 5 ]

(* A ring whose capacity is not a multiple of the chunk (its last chunk
   is short), read back before it fills, when exactly full, and after
   it wraps once and several times: always the newest [capacity]
   entries, oldest first. *)
let test_ring_across_chunks () =
  let c = Trace.chunk_size in
  let capacity = (2 * c) + 7 in
  let t = Trace.create ~capacity ~enabled:true () in
  let recorded = ref 0 in
  List.iter
    (fun upto ->
      record_times t ~from:!recorded ~upto;
      recorded := upto;
      let kept = Int.min upto capacity in
      let msg = Printf.sprintf "after %d" upto in
      check_times msg t ~first:(upto - kept) ~n:kept;
      Alcotest.(check int) (msg ^ " dropped") (upto - kept) (Trace.dropped t);
      Alcotest.(check (option int)) (msg ^ " capacity") (Some capacity)
        (Trace.capacity t))
    [ c + 1; capacity - 1; capacity; capacity + 1; (2 * capacity) + c + 3 ]

(* --- Contention counters ----------------------------------------------- *)

let test_contention_counters () =
  let arr = Contention.make_array ~n:2 in
  let c = arr.(1) in
  Contention.note_acquire c;
  Contention.note_conflict c;
  Contention.note_retry c;
  Contention.note_blocked c ~ns:500;
  Contention.note_queue_depth c ~depth:3;
  Contention.note_queue_depth c ~depth:1;
  Alcotest.(check int) "acquires" 1 c.Contention.acquires;
  Alcotest.(check int) "retry counts as conflict" 2 c.Contention.conflicts;
  Alcotest.(check int) "retries" 1 c.Contention.retries;
  Alcotest.(check int) "blocked_ns" 500 c.Contention.blocked_ns;
  Alcotest.(check int) "max queue" 3 c.Contention.max_queue_depth;
  Alcotest.(check bool) "o0 quiet" true (Contention.is_quiet arr.(0));
  Alcotest.(check bool) "o1 active" false (Contention.is_quiet c);
  let totals = Contention.totals arr in
  Alcotest.(check int) "t_acquires" 1 totals.Contention.t_acquires;
  Alcotest.(check int) "t_conflicts" 2 totals.Contention.t_conflicts;
  Alcotest.(check int) "t_blocked_ns" 500 totals.Contention.t_blocked_ns

let test_contention_negative_block () =
  let arr = Contention.make_array ~n:1 in
  Alcotest.check_raises "negative span"
    (Invalid_argument "Contention.note_blocked: negative span") (fun () ->
      Contention.note_blocked arr.(0) ~ns:(-1))

(* --- Span reconstruction ------------------------------------------------ *)

let hand_trace () =
  let t = Trace.create ~enabled:true () in
  let r time kind = Trace.record t ~time kind in
  r 0 (Trace.Arrive (0, 0, 0));
  r 0 (Trace.Sched (4, 300));
  r 10 (Trace.Start (0, 0));
  r 20 (Trace.Block (0, 2));
  r 50 (Trace.Wake (0, 2));
  r 50 (Trace.Start (0, 0));
  r 60 (Trace.Retry (0, 2, -1, 0));
  r 80 (Trace.Access_done (0, 2));
  r 90 (Trace.Complete 0);
  t

let test_spans_reconstruction () =
  let s = Spans.of_trace (hand_trace ()) in
  Alcotest.(check int) "last time" 90 s.Spans.last_time;
  Alcotest.(check (option int)) "task of jid 0" (Some 0)
    (Spans.task_of s ~jid:0);
  (* Two running spans: 10-20 (to the block) and 50-90 (to completion). *)
  Alcotest.(check (list (pair int int))) "running"
    [ (10, 20); (50, 90) ]
    (List.map (fun sp -> (sp.Spans.start, sp.Spans.stop)) s.Spans.running);
  (* One blocking span 20-50 on object 2. *)
  (match s.Spans.blocking with
  | [ sp ] ->
    Alcotest.(check int) "block start" 20 sp.Spans.start;
    Alcotest.(check int) "block stop" 50 sp.Spans.stop;
    Alcotest.(check (option int)) "block obj" (Some 2) sp.Spans.obj
  | l -> Alcotest.failf "expected 1 blocking span, got %d" (List.length l));
  (* Retry span anchored at the wake (50) and ending at the retry (60);
     access span from the retry (60) to access-done (80). *)
  Alcotest.(check (list (pair int int))) "retry"
    [ (50, 60) ]
    (List.map (fun sp -> (sp.Spans.start, sp.Spans.stop)) s.Spans.retries);
  Alcotest.(check (list (pair int int))) "access"
    [ (60, 80) ]
    (List.map (fun sp -> (sp.Spans.start, sp.Spans.stop)) s.Spans.accesses);
  (* One scheduler span with its op count. *)
  (match s.Spans.sched with
  | [ sp ] ->
    Alcotest.(check int) "sched ops" 4 sp.Spans.ops;
    Alcotest.(check int) "sched cost" 300 (Spans.duration sp)
  | l -> Alcotest.failf "expected 1 sched span, got %d" (List.length l))

let test_spans_open_at_horizon () =
  let t = Trace.create ~enabled:true () in
  Trace.record t ~time:0 (Trace.Start (1, 0));
  Trace.record t ~time:5 (Trace.Block (1, 0));
  Trace.record t ~time:30 (Trace.Complete 9);
  let s = Spans.of_trace t in
  (* Both the running span and the blocking span are cut off by the end
     of the trace and must be closed at last_time, not dropped. *)
  Alcotest.(check (list (pair int int))) "running closed" [ (0, 5) ]
    (List.map (fun sp -> (sp.Spans.start, sp.Spans.stop)) s.Spans.running);
  Alcotest.(check (list (pair int int))) "blocking closed" [ (5, 30) ]
    (List.map (fun sp -> (sp.Spans.start, sp.Spans.stop)) s.Spans.blocking)

(* --- JSON emitter ------------------------------------------------------- *)

let test_json_emitter () =
  Alcotest.(check string) "escaping" {|{"a":"x\"\n","b":[1,null,true]}|}
    (Json.to_string
       (Json.Obj
          [ ("a", Json.Str "x\"\n");
            ("b", Json.List [ Json.Int 1; Json.Null; Json.Bool true ]) ]));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "integral float" "2.0"
    (Json.to_string (Json.Float 2.0))

let field name = function
  | Json.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let test_json_parser () =
  (* Round-trip: parse(emit(v)) = v on a nested document. *)
  let v =
    Json.Obj
      [
        ("s", Json.Str "he\"llo\n");
        ("i", Json.Int (-42));
        ("f", Json.Float 2.5);
        ("b", Json.Bool false);
        ("z", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Obj [ ("k", Json.Str "v") ] ]);
        ("e", Json.Obj []);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | got when got = v -> ()
  | got ->
    Alcotest.failf "round-trip mismatch: %s vs %s" (Json.to_string got)
      (Json.to_string v));
  (* Whitespace tolerated, integral floats come back as Float. *)
  Alcotest.(check bool) "whitespace"
    true
    (Json.of_string " { \"a\" : [ 1 , 2.0 ] } "
    = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.0 ]) ]);
  (* Malformed inputs are rejected, of_string_opt is total. *)
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" bad)
        true
        (Json.of_string_opt bad = None))
    [ "{"; "[1,]"; "\"unterminated"; "{\"a\":1} garbage"; "nul"; "" ];
  Alcotest.(check bool) "member" true
    (Json.member "a" (Json.Obj [ ("a", Json.Int 3) ]) = Some (Json.Int 3))

let test_json_unicode_escapes () =
  (* BMP escapes decode to UTF-8 across the 1/2/3-byte boundaries. *)
  List.iter
    (fun (input, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "decodes %s" input)
        true
        (Json.of_string input = Json.Str expect))
    [
      ({|"\u0041"|}, "A");
      ({|"\u00e9"|}, "\xc3\xa9") (* e-acute: 2-byte UTF-8 *);
      ({|"\u20ac"|}, "\xe2\x82\xac") (* euro sign: 3-byte UTF-8 *);
      ({|"\uFFFD"|}, "\xef\xbf\xbd") (* replacement char, upper hex *);
    ];
  (* Astral code points arrive as RFC 8259 surrogate pairs and must
     recombine into one 4-byte UTF-8 sequence. *)
  Alcotest.(check bool) "surrogate pair U+1F600" true
    (Json.of_string {|"\ud83d\ude00"|} = Json.Str "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "surrogate pair U+10000" true
    (Json.of_string {|"\ud800\udc00"|} = Json.Str "\xf0\x90\x80\x80");
  Alcotest.(check bool) "surrogate pair U+10FFFF" true
    (Json.of_string {|"\udbff\udfff"|} = Json.Str "\xf4\x8f\xbf\xbf");
  (* The emitter passes UTF-8 through raw, so astral strings round-trip
     whichever way they were spelled on the wire. *)
  let smiley = Json.Str "pre \xf0\x9f\x98\x80 post" in
  Alcotest.(check bool) "astral round-trip" true
    (Json.of_string (Json.to_string smiley) = smiley);
  (* Lone or malformed surrogates are parse errors, not mojibake. *)
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %s" bad)
        true
        (Json.of_string_opt bad = None))
    [
      {|"\ud83d"|} (* lone high *);
      {|"\ud83d x"|} (* high then literal *);
      {|"\ude00"|} (* lone low *);
      {|"\ud83dA"|} (* high then non-surrogate escape *);
      {|"\ud83d\ud83d"|} (* high then high *);
      {|"\u12G4"|} (* bad hex digit *);
      {|"\u12|} (* truncated *);
    ]

(* --- counter tracks ------------------------------------------------------ *)

let test_chrome_counter_tracks () =
  let t = Trace.create ~enabled:true () in
  let r time kind = Trace.record t ~time kind in
  r 0 (Trace.Arrive (0, 0, 0));
  r 10 (Trace.Start (0, 0));
  r 20 (Trace.Retry (0, 2, -1, 0));
  r 30 (Trace.Retry (0, 2, -1, 0));
  r 40 (Trace.Retry (0, 0, -1, 0));
  r 50 (Trace.Complete 0);
  let events = Chrome_trace.events t in
  let counters =
    List.filter_map
      (fun ev ->
        match (field "ph" ev, field "name" ev, field "args" ev) with
        | ( Some (Json.Str "C"),
            Some (Json.Str name),
            Some (Json.Obj [ ("value", Json.Int v) ]) ) -> Some (name, v)
        | _ -> None)
      events
  in
  (* Cumulative staircase per object, plus the process-wide total. *)
  Alcotest.(check (list (pair string int)))
    "cumulative counters"
    [
      ("retries o2", 1); ("retries (total)", 1);
      ("retries o2", 2); ("retries (total)", 2);
      ("retries o0", 1); ("retries (total)", 3);
    ]
    counters

let test_chrome_flow_events () =
  (* J1 holds o0 and blocks J0; J2's committed write invalidates J0's
     lock-free attempt. Expect one blocking arrow (holder lane →
     victim's wake) and one retry arrow (invalidator's access → retry
     instant), each a paired s/f with matching id and name. *)
  let t = Trace.create ~enabled:true () in
  let r time kind = Trace.record t ~time kind in
  r 0 (Trace.Arrive (0, 0, 0));
  r 0 (Trace.Arrive (1, 1, 0));
  r 0 (Trace.Arrive (2, 2, 0));
  r 5 (Trace.Acquire (1, 0));
  r 10 (Trace.Block (0, 0));
  r 30 (Trace.Release (1, 0));
  r 30 (Trace.Wake (0, 0));
  r 40 (Trace.Access_done (2, 1));
  r 50 (Trace.Retry (0, 1, 2, 7));
  r 60 (Trace.Complete 0);
  let events = Chrome_trace.events t in
  let flows p =
    List.filter_map
      (fun ev ->
        match (field "ph" ev, field "id" ev, field "name" ev, field "ts" ev)
        with
        | Some (Json.Str ph), Some (Json.Int id), Some (Json.Str name),
          Some (Json.Float ts)
          when ph = p ->
          Some (id, name, ts)
        | _ -> None)
      events
  in
  let starts = flows "s" and finishes = flows "f" in
  Alcotest.(check int) "two flow starts" 2 (List.length starts);
  Alcotest.(check int) "two flow finishes" 2 (List.length finishes);
  List.iter
    (fun (id, name, ts) ->
      match List.find_opt (fun (id', _, _) -> id' = id) finishes with
      | None -> Alcotest.failf "flow %d unpaired" id
      | Some (_, name', ts') ->
        Alcotest.(check string) "flow name matches" name name';
        Alcotest.(check bool) "flow start <= finish" true (ts <= ts'))
    starts;
  Alcotest.(check bool) "blocking arrow present" true
    (List.exists (fun (_, name, _) -> name = "blocks o0") starts);
  Alcotest.(check bool) "retry arrow present" true
    (List.exists (fun (_, name, _) -> name = "invalidates o1") starts)

let test_chrome_no_counters_without_retries () =
  let t = Trace.create ~enabled:true () in
  Trace.record t ~time:0 (Trace.Start (0, 0));
  Trace.record t ~time:9 (Trace.Complete 0);
  let has_counter =
    List.exists
      (fun ev -> field "ph" ev = Some (Json.Str "C"))
      (Chrome_trace.events t)
  in
  Alcotest.(check bool) "no counter events" false has_counter

(* --- golden exporter checks --------------------------------------------- *)

(* A tiny deterministic two-task workload contending on object 0 under
   lock-based sharing: exercises arrive/start/block/wake/acquire/
   release/complete and scheduler events in a trace small enough to
   review by hand. *)
let golden_result () =
  let tasks =
    [
      Task.make ~id:0
        ~tuf:(Tuf.step ~height:10.0 ~c:90_000)
        ~arrival:(Uam.periodic ~period:100_000)
        ~exec:20_000
        ~accesses:[ (0, 5_000) ]
        ();
      Task.make ~id:1
        ~tuf:(Tuf.step ~height:5.0 ~c:90_000)
        ~arrival:(Uam.periodic ~period:100_000)
        ~exec:15_000
        ~accesses:[ (0, 5_000); (1, 3_000) ]
        ();
    ]
  in
  Simulator.run
    (Simulator.config ~tasks
       ~sync:(Sync.Lock_based { overhead = 2_000 })
       ~sched:Simulator.Rua ~horizon:300_000 ~seed:7 ~sched_base:200
       ~sched_per_op:25 ~trace:true ())

(* From [dune runtest] (cwd test/) or [dune exec] at the repo root. *)
let read_file path =
  let path =
    if Sys.file_exists path || not (Sys.file_exists ("test/" ^ path)) then path
    else "test/" ^ path
  in
  In_channel.with_open_bin path In_channel.input_all

let test_golden_chrome () =
  let res = golden_result () in
  let got = Chrome_trace.to_string res.Simulator.trace in
  let want = read_file "golden/trace_small.json" in
  Alcotest.(check string) "chrome trace matches golden" want got

let test_golden_csv () =
  let res = golden_result () in
  let got = Csv_export.to_string res.Simulator.trace in
  let want = read_file "golden/trace_small.csv" in
  Alcotest.(check string) "csv trace matches golden" want got

(* Every m = 1 and smp grid config, and one trace that dropped entries,
   must export byte for byte what golden/export_digests.json records. *)
let test_export_digests () =
  let doc = M1_grid.export_document in
  match
    M1_grid.check_document doc
      (Json.of_string (read_file "golden/export_digests.json"))
  with
  | Error e -> Alcotest.fail e
  | Ok want -> (
    match M1_grid.diverging M1_grid.export_digests want doc.grid with
    | [] -> ()
    | diverged ->
      Alcotest.failf "%d of %d configs export other bytes:\n%s"
        (List.length diverged) (List.length doc.grid)
        (String.concat "\n" diverged))

let test_chrome_schema () =
  let res = golden_result () in
  let events = Chrome_trace.events res.Simulator.trace in
  Alcotest.(check bool) "nonempty" true (events <> []);
  List.iter
    (fun ev ->
      (match field "ph" ev with
      | Some (Json.Str ("M" | "X" | "i" | "C" | "s" | "f")) -> ()
      | _ -> Alcotest.fail "event without valid ph");
      (match (field "pid" ev, field "tid" ev) with
      | Some (Json.Int _), Some (Json.Int _) -> ()
      | Some (Json.Int _), None when field "ph" ev = Some (Json.Str "C") ->
        (* counter tracks are per-process, no thread lane *)
        ()
      | _ -> Alcotest.fail "event without pid/tid");
      (match field "name" ev with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.fail "event without name");
      match field "ph" ev with
      | Some (Json.Str "X") -> (
          match (field "ts" ev, field "dur" ev) with
          | Some (Json.Float _), Some (Json.Float _) -> ()
          | _ -> Alcotest.fail "X event without ts/dur")
      | Some (Json.Str "i") -> (
          match (field "ts" ev, field "s" ev) with
          | Some (Json.Float _), Some (Json.Str "t") -> ()
          | _ -> Alcotest.fail "i event without ts or thread scope")
      | Some (Json.Str "M") -> (
          match field "args" ev with
          | Some (Json.Obj [ ("name", Json.Str _) ]) -> ()
          | _ -> Alcotest.fail "M event without args.name")
      | Some (Json.Str "C") -> (
          match (field "ts" ev, field "args" ev) with
          | Some (Json.Float _), Some (Json.Obj [ ("value", Json.Int _) ])
            ->
            ()
          | _ -> Alcotest.fail "C event without ts/args.value")
      | Some (Json.Str "s") -> (
          match (field "ts" ev, field "id" ev, field "cat" ev) with
          | Some (Json.Float _), Some (Json.Int _), Some (Json.Str _) -> ()
          | _ -> Alcotest.fail "s event without ts/id/cat")
      | Some (Json.Str "f") -> (
          match (field "ts" ev, field "id" ev, field "bp" ev) with
          | Some (Json.Float _), Some (Json.Int _), Some (Json.Str "e") -> ()
          | _ -> Alcotest.fail "f event without ts/id/bp")
      | _ -> ())
    events;
  (* The document itself parses line-per-event and has metadata for
     both task lanes plus the scheduler lane. *)
  let metas =
    List.filter (fun ev -> field "ph" ev = Some (Json.Str "M")) events
  in
  Alcotest.(check bool) "at least 3 lanes" true (List.length metas >= 3)

let test_csv_schema () =
  let res = golden_result () in
  let s = Csv_export.to_string res.Simulator.trace in
  match String.split_on_char '\n' s with
  | header :: rows ->
    Alcotest.(check string) "header" "time_ns,event,jid,obj,extra" header;
    List.iter
      (fun row ->
        if row <> "" then
          Alcotest.(check int)
            (Printf.sprintf "row %S has 5 fields" row)
            5
            (List.length (String.split_on_char ',' row)))
      rows
  | [] -> Alcotest.fail "empty csv"

let test_result_json_keys () =
  let res = golden_result () in
  let s = Result_json.to_string res in
  List.iter
    (fun key ->
      let needle = Printf.sprintf "%S:" key in
      let rec contains i =
        i + String.length needle <= String.length s
        && (String.sub s i (String.length needle) = needle
           || contains (i + 1))
      in
      Alcotest.(check bool) (key ^ " present") true (contains 0))
    [
      "sync"; "scheduler"; "aur"; "cmr"; "sojourn_ns"; "p50"; "p90"; "p99";
      "contention"; "blocked_ns"; "per_task"; "trace_dropped";
    ]

let () =
  Test_support.run "obs"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile_opt" `Quick test_percentile_opt;
          Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
          Alcotest.test_case "histogram buckets" `Quick
            test_histogram_buckets;
          Alcotest.test_case "histogram degenerate" `Quick
            test_histogram_degenerate;
          Alcotest.test_case "histogram invalid bins" `Quick
            test_histogram_invalid_bins;
          Alcotest.test_case "histogram render" `Quick test_histogram_render;
        ] );
      ( "ring-buffer",
        [
          Alcotest.test_case "drops oldest" `Quick
            test_ring_buffer_drops_oldest;
          Alcotest.test_case "under capacity" `Quick
            test_ring_buffer_under_capacity;
          Alcotest.test_case "unbounded never drops" `Quick
            test_unbounded_never_drops;
          Alcotest.test_case "invalid capacity" `Quick test_invalid_capacity;
          Alcotest.test_case "unbounded across chunks" `Quick
            test_unbounded_across_chunks;
          Alcotest.test_case "ring across chunks" `Quick
            test_ring_across_chunks;
        ] );
      ( "contention",
        [
          Alcotest.test_case "counters" `Quick test_contention_counters;
          Alcotest.test_case "negative block" `Quick
            test_contention_negative_block;
        ] );
      ( "spans",
        [
          Alcotest.test_case "reconstruction" `Quick
            test_spans_reconstruction;
          Alcotest.test_case "open at horizon" `Quick
            test_spans_open_at_horizon;
        ] );
      ( "json",
        [
          Alcotest.test_case "emitter" `Quick test_json_emitter;
          Alcotest.test_case "parser round-trip" `Quick test_json_parser;
          Alcotest.test_case "unicode escapes" `Quick
            test_json_unicode_escapes;
        ] );
      ( "counter-tracks",
        [
          Alcotest.test_case "cumulative retries" `Quick
            test_chrome_counter_tracks;
          Alcotest.test_case "blame flow arrows" `Quick
            test_chrome_flow_events;
          Alcotest.test_case "absent without retries" `Quick
            test_chrome_no_counters_without_retries;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "golden chrome trace" `Quick test_golden_chrome;
          Alcotest.test_case "golden csv" `Quick test_golden_csv;
          Alcotest.test_case "export digests" `Quick test_export_digests;
          Alcotest.test_case "chrome schema" `Quick test_chrome_schema;
          Alcotest.test_case "csv schema" `Quick test_csv_schema;
          Alcotest.test_case "result json keys" `Quick
            test_result_json_keys;
        ] );
    ]
