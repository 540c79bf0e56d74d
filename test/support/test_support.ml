(* Shared harness for the test suite's randomised parts.

   Every source of test randomness (QCheck generators, Prng streams,
   stress worker seeds) derives from one root seed, taken from the
   RTLF_SEED environment variable (default 42). On failure the seed is
   printed, so any randomised failure reproduces with
   `RTLF_SEED=<n> dune runtest`. *)

let default_seed = 42

let seed =
  match Sys.getenv_opt "RTLF_SEED" with
  | None | Some "" -> default_seed
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None ->
      Printf.eprintf "RTLF_SEED=%S is not an integer; using %d\n%!" s
        default_seed;
      default_seed)

let rand_state () = Random.State.make [| seed |]

let prng () = Rtlf_engine.Prng.create ~seed

let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(rand_state ()) t

(* Drop-in replacement for [Alcotest.run]: on any failure, print the
   active seed before re-raising so the run is reproducible. *)
let run name suites =
  try Alcotest.run ~and_exit:false name suites
  with e ->
    Printf.eprintf
      "\n[%s] randomised tests used RTLF_SEED=%d; re-run with that env var \
       to reproduce\n\
       %!"
      name seed;
    raise e

(* --- result fingerprint ----------------------------------------------- *)

module Stats = Rtlf_engine.Stats
module Simulator = Rtlf_sim.Simulator
module Trace = Rtlf_sim.Trace

let fingerprint (r : Simulator.result) =
  let i = string_of_int and f = Printf.sprintf "%h" in
  let ints a = String.concat " " (Array.to_list (Array.map i a)) in
  let summary (s : Stats.summary) =
    String.concat " "
      [ i s.n; f s.mean; f s.stddev; f s.ci95; f s.min; f s.max ]
  in
  let hist (h : Stats.histogram) =
    String.concat " "
      [ i h.n; f h.mean; f h.min; f h.max; f h.p50; f h.p90; f h.p99;
        f h.bucket_lo; f h.bucket_width; ints h.buckets ]
  in
  let lines kvs =
    String.concat "" (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") kvs)
  in
  let rows name row a = lines (List.map (fun x -> (name, row x)) a) in
  let task (t : Simulator.task_result) =
    let p = t.retry_tails in
    String.concat " "
      [ i t.task_id; i t.released; i t.completed; i t.met; i t.aborted;
        f t.accrued; f t.max_possible; i t.total_retries; i t.max_retries;
        i p.n; f p.p50; f p.p90; f p.p99; f p.p999; summary t.sojourn ]
  in
  let contention (c : Rtlf_sim.Contention.t) =
    ints
      [| c.obj; c.acquires; c.conflicts; c.retries; c.blocked_ns;
         c.max_queue_depth |]
  in
  let violation (v : Rtlf_sim.Audit.violation) =
    ints [| v.jid; v.task_id; v.retries; v.bound; v.time |]
  in
  let trace = Buffer.create 4096 in
  Trace.iter
    (fun { Trace.time; kind } ->
      let name, args =
        match kind with
        | Trace.Arrive (a, b, c) -> ("arrive", [| a; b; c |])
        | Start (a, b) -> ("start", [| a; b |])
        | Migrate (a, b, c) -> ("migrate", [| a; b; c |])
        | Preempt (a, b) -> ("preempt", [| a; b |])
        | Block (a, b) -> ("block", [| a; b |])
        | Wake (a, b) -> ("wake", [| a; b |])
        | Acquire (a, b) -> ("acquire", [| a; b |])
        | Release (a, b) -> ("release", [| a; b |])
        | Retry (a, b, c, d) -> ("retry", [| a; b; c; d |])
        | Access_done (a, b) -> ("access", [| a; b |])
        | Complete a -> ("complete", [| a |])
        | Abort (a, b) -> ("abort", [| a; b |])
        | Sched (a, b) -> ("sched", [| a; b |])
      in
      Printf.bprintf trace "%d %s %s\n" time name (ints args))
    r.trace;
  [
    ( "outcomes",
      lines
        [ ("sync_name", r.sync_name); ("sched_name", r.sched_name);
          ("dispatch_name", r.dispatch_name); ("cores", i r.cores);
          ("released", i r.released); ("completed", i r.completed);
          ("met", i r.met); ("aborted", i r.aborted);
          ("in_flight", i r.in_flight); ("accrued", f r.accrued);
          ("max_possible", f r.max_possible); ("aur", f r.aur);
          ("cmr", f r.cmr) ] );
    ( "time",
      lines
        [ ("final_time", i r.final_time); ("busy", i r.busy);
          ("per_core_busy", ints r.per_core_busy);
          ("sched_invocations", i r.sched_invocations);
          ("sched_overhead", i r.sched_overhead) ] );
    ( "events",
      lines
        [ ("retries_total", i r.retries_total);
          ("preemptions", i r.preemptions);
          ("blocked_events", i r.blocked_events);
          ("migrations", i r.migrations) ] );
    ( "distributions",
      lines
        [ ("access_samples", summary r.access_samples);
          ("sojourn_samples",
            String.concat " " (List.map f (Array.to_list r.sojourn_samples)));
          ("sojourn_hist", hist (Simulator.sojourn_hist r));
          ("blocking_hist", hist r.blocking_hist);
          ("sched_hist", hist r.sched_hist) ] );
    ("contention", rows "object" contention (Array.to_list r.contention));
    ("per_task", rows "task" task (Array.to_list r.per_task));
    ( "audit",
      lines
        [ ("audited", string_of_bool r.audit.audited);
          ("checked", i r.audit.checked); ("bounds", ints r.audit.bounds) ]
      ^ rows "violation" violation r.audit.violations );
    ("trace", Buffer.contents trace);
  ]

let fingerprint_diff a b =
  let rec first g = function
    | x :: xs, y :: ys when x = y -> first g (xs, ys)
    | x :: _, y :: _ -> Printf.sprintf "%s: %S / %S" g x y
    | _ -> g
  in
  List.find_map
    (fun (g, x) ->
      let y = Option.value (List.assoc_opt g b) ~default:"" in
      let lines = String.split_on_char '\n' in
      if x = y then None else Some (first g (lines x, lines y)))
    a
