(* End-to-end simulator benchmark.

   One process, one domain, closed loop: each [Simulator.run] (or
   experiment) starts when the previous one returns. README.md lists
   the workloads, the metrics and their bounds.

     e2e.exe --out FILE [--seed N]     every workload, then the per-layer pass
     e2e.exe --workload W --seed N --seconds S --trace 0|1
                                       one workload, one JSON result line
     e2e.exe --compare PARENT.json CHANGE.json [PARENT2.json CHANGE2.json ...]
     e2e.exe --smoke                   a few seconds: goldens and schema
     e2e.exe --write-golden FILE       regenerate the committed digests *)

module Simulator = Rtlf_sim.Simulator
module Common = Rtlf_experiments.Common
module Json = Rtlf_obs.Json
module W = Workloads

let clock = Host.clock
let secs = Host.secs
let schema = "rtlf-bench-e2e-v1"
let golden_schema = "rtlf-bench-e2e-golden-v1"
let default_seed = 1
let experiment_names = List.map fst Rtlf_experiments.All.experiments

(* Set-up is repeated and its median reported, so that one slow
   repetition does not move [setup_s]. *)
let setup_reps = 15

(* Progress lines on stderr; the smoke check runs quiet. *)
let progress = ref true
let note fmt = Printf.ksprintf (fun s -> if !progress then prerr_endline s) fmt

let percentile xs p = Rtlf_engine.Stats.percentile xs ~p
let median xs = percentile (Array.of_list xs) 50.0

(* --- golden digests --------------------------------------------------- *)

(* The default seed's digests for [w]: one per run, or for figures-fast
   one per experiment named in [experiments] ("" where the report prints
   host timings). [None] when the file holds nothing for the workload. *)
let golden_digests json (w : W.t) ~experiments =
  match w.kind with
  | W.Sim _ -> (
    match Option.bind (Json.member "runs" json) (Json.member w.name) with
    | Some (Json.List xs) ->
      Some
        (Array.of_list (List.map (function Json.Str s -> s | _ -> "?") xs))
    | _ -> None)
  | W.Figures ->
    Option.map
      (fun exps ->
        Array.of_list
          (List.map
             (fun name ->
               match Json.member name exps with
               | Some (Json.Str s) -> s
               | _ -> "")
             experiments))
      (Json.member "experiments" json)

(* --- passes ----------------------------------------------------------- *)

type pass = {
  wall : float;  (** reference s, the whole pass including its checks *)
  wall_raw : float;  (** host s, the same span unscaled *)
  calibration : float;  (** median kernel time over the pass, host s *)
  units : float array;  (** reference s per run (or per experiment) *)
  work : int;  (** Σ sched_invocations, or experiments run *)
  minor_words : float;  (** allocated inside the runs only *)
  digests : string array;  (** "" where a unit has no digest *)
  failures : (int * string) list;  (** (unit index, what broke) *)
}

(* Run [n] units. A [calibrated] pass runs the host kernel before the
   first unit, inside each one (see [Host.timed]) and after each one.
   The warm-up pass runs uncalibrated: the kernel's allocations would
   shift the garbage collector's schedule, and the heap metric is read
   after that pass. [unit i] does the timed work and returns a closure
   giving (work done, digest, broken invariants), evaluated untimed. *)
let run_pass ~calibrated n unit =
  Gc.compact ();
  let calibrate () =
    if calibrated then Host.calibrate () else Host.reference_s
  in
  let units = Array.make n 0.0 and spans = Array.make n 0.0 in
  let factors = Array.make n 1.0 and digests = Array.make n "" in
  let work = ref 0 and words = ref 0.0 in
  let failures = ref [] in
  let cals = ref [ calibrate () ] in
  for i = 0 to n - 1 do
    let kernels =
      match Host.timed ~sample:calibrated (fun () -> unit i) with
      | finish, ns, w, kernels ->
        let t0 = clock () in
        units.(i) <- secs ns;
        words := !words +. w;
        let w, d, broken = finish () in
        work := !work + w;
        digests.(i) <- d;
        List.iter (fun m -> failures := (i, m) :: !failures) broken;
        spans.(i) <- secs (ns + clock () - t0);
        kernels
      | exception e ->
        failures := (i, Printexc.to_string e) :: !failures;
        []
    in
    let c = calibrate () in
    factors.(i) <- Host.factor (List.hd !cals :: c :: kernels);
    cals := c :: !cals
  done;
  let scaled a = Array.mapi (fun i v -> v *. factors.(i)) a in
  let sum = Array.fold_left ( +. ) 0.0 in
  {
    wall = sum (scaled spans);
    wall_raw = sum spans;
    calibration = median !cals;
    units = scaled units;
    work = !work;
    minor_words = !words;
    digests;
    failures = List.rev !failures;
  }

let sim_pass ~calibrated (inputs : W.run_input array) =
  run_pass ~calibrated (Array.length inputs) (fun i ->
      let r = Simulator.run inputs.(i).cfg in
      fun () ->
        (r.Simulator.sched_invocations, W.digest r, W.invariant_failures r))

let figures_pass ~calibrated names =
  let names = Array.of_list names in
  run_pass ~calibrated (Array.length names) (fun i ->
      let name = names.(i) in
      let f = List.assoc name Rtlf_experiments.All.experiments in
      let buf = Buffer.create 65536 in
      let fmt = Format.formatter_of_buffer buf in
      f ~mode:Common.Fast ~jobs:1 fmt;
      Format.pp_print_flush fmt ();
      fun () ->
        let d =
          if W.digested name then W.report_digest (Buffer.contents buf)
          else ""
        in
        (1, d, []))

(* --- one workload ----------------------------------------------------- *)

type budget = Passes of int | Seconds of float

type measured = {
  workload : W.t;
  experiments : string list;  (** figures-fast: the experiments run *)
  setup : float list;  (** s per set-up repetition *)
  heap_top_words : int;
      (** the process's major-heap high-water mark after the warm-up pass:
          this workload's peak when it runs alone, as under --workload;
          under --out, the peak of this and every earlier workload *)
  passes : pass list;  (** measured passes, warm-up excluded *)
  attempted : int;  (** runs or experiments, warm-up included *)
  failed : int;
  failure_msgs : string list;
  golden : string;  (** "match", "mismatch" or "skipped" *)
}

(* Load the digests the runs are checked against and synthesise the
   pass's inputs: the work [setup_s] times. *)
let setup (w : W.t) ~seed ~golden_path ~runs =
  let golden =
    Option.map (fun p -> Json.of_string (Compare.read_file p)) golden_path
  in
  let inputs =
    match w.kind with
    | W.Sim sim -> Array.of_list (W.inputs sim ~seed ~n:runs)
    | W.Figures -> [||]
  in
  (golden, inputs)

(* Check every pass's digests against the reference and collect one
   failure message per broken (pass, unit). *)
let check_passes all ~reference ~against =
  let broken = Hashtbl.create 16 in
  List.iteri
    (fun k p ->
      let fail i msg =
        if not (Hashtbl.mem broken (k, i)) then
          Hashtbl.replace broken (k, i)
            (Printf.sprintf "pass %d unit %d: %s" k i msg)
      in
      List.iter (fun (i, m) -> fail i m) p.failures;
      Array.iteri
        (fun i d ->
          if i >= Array.length reference || d <> reference.(i) then
            fail i ("digest differs from " ^ against))
        p.digests)
    all;
  List.sort compare (Hashtbl.fold (fun _ m acc -> m :: acc) broken [])

let measure ?(experiments = experiment_names) ?runs (w : W.t) ~seed
    ~golden_path ~budget =
  let runs =
    match (runs, w.kind) with
    | Some n, _ -> n
    | None, W.Sim s -> s.runs
    | None, W.Figures -> 0
  in
  let times = ref [] and state = ref None in
  let c0 = Host.calibrate () in
  for _ = 1 to setup_reps do
    let t0 = clock () in
    state := Some (setup w ~seed ~golden_path ~runs);
    times := secs (clock () - t0) :: !times
  done;
  let f = Host.factor [ c0; Host.calibrate () ] in
  let golden_json, inputs = Option.get !state in
  let pass ~calibrated =
    match w.kind with
    | W.Sim _ -> sim_pass ~calibrated inputs
    | W.Figures -> figures_pass ~calibrated experiments
  in
  note "%s: warm-up pass" w.name;
  let warm = pass ~calibrated:false in
  let heap_top_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let start = clock () in
  let rec loop acc k =
    let go_on =
      match (budget, acc) with
      | Passes n, _ -> k < n
      | Seconds _, [] -> true
      | Seconds s, last :: _ -> secs (clock () - start) +. last.wall_raw <= s
    in
    if not go_on then List.rev acc
    else begin
      let p = pass ~calibrated:true in
      note "%s: pass %d  %.3f s (host %.3f s, kernel %.3f ms)" w.name (k + 1)
        p.wall p.wall_raw (p.calibration *. 1e3);
      loop (p :: acc) (k + 1)
    end
  in
  let passes = loop [] 0 in
  (* The committed goldens cover the default seed, and figures-fast at
     any seed (its experiments fix their own seeds). Otherwise every
     pass is checked for determinism against the warm-up pass. *)
  let golden =
    if seed <> default_seed && w.kind <> W.Figures then None
    else
      Option.bind golden_json (fun g -> golden_digests g w ~experiments)
      |> Option.map (fun g ->
             Array.sub g 0 (min (Array.length g) (Array.length warm.digests)))
  in
  let all = warm :: passes in
  let failure_msgs =
    match golden with
    | Some g -> check_passes all ~reference:g ~against:"golden"
    | None ->
      check_passes all ~reference:warm.digests ~against:"the warm-up pass"
  in
  {
    workload = w;
    experiments =
      (match w.kind with
      | W.Sim _ -> []
      | W.Figures -> experiments);
    setup = List.rev_map (fun t -> t *. f) !times;
    heap_top_words;
    passes;
    attempted = List.fold_left (fun s p -> s + Array.length p.units) 0 all;
    failed = List.length failure_msgs;
    failure_msgs;
    golden =
      (match golden with
      | None -> "skipped"
      | Some _ -> if failure_msgs = [] then "match" else "mismatch");
  }

(* --- end-to-end metrics ---------------------------------------------- *)

(* (name, unit, value, samples) in BENCHMARK.json's order. The samples
   (one per measured pass, or per set-up repetition) are what --compare
   pairs. *)
let e2e_metrics m =
  let per f = List.map f m.passes in
  let pooled = Array.concat (per (fun p -> p.units)) in
  let ms p = Array.map (fun s -> s *. 1e3) p.units in
  let rate p = float_of_int p.work /. Array.fold_left ( +. ) 0.0 p.units in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
  let walls = per (fun p -> p.wall) in
  let rates = per rate in
  let allocs = per (fun p -> p.minor_words /. 1e6) in
  let heap = mb m.heap_top_words in
  [
    ("wall_s", "s", median walls, walls);
    ("inv_per_s", "1/s", median rates, rates);
    ("run_ms.p50", "ms", percentile pooled 50.0 *. 1e3,
     per (fun p -> percentile (ms p) 50.0));
    ("run_ms.p90", "ms", percentile pooled 90.0 *. 1e3,
     per (fun p -> percentile (ms p) 90.0));
    ("alloc_mwords", "Mwords", median allocs, allocs);
    ("heap_peak_mb", "MB", heap, [ heap ]);
    ("setup_s", "s", median m.setup, m.setup);
  ]

let failed_ratio m = float_of_int m.failed /. float_of_int m.attempted

(* --- per-layer pass --------------------------------------------------- *)

(* Layer runs per simulator workload: the first runs of its pass. *)
let layer_runs = 10

(* figures-fast's traced runs are the blame experiment's: 8 tasks on 2
   objects at the Fast loads, under both disciplines, every entry kept.
   The spec mirrors the one in lib/experiments/blame.ml. *)
let blame_inputs () =
  List.concat_map
    (fun load ->
      let spec =
        {
          Rtlf_workload.Workload.default with
          n_tasks = 8;
          n_objects = 2;
          accesses_per_job = 6;
          access_work = 5_000;
          burst = 3;
          mean_exec = 100_000;
          target_al = load;
          seed = 11;
        }
      in
      let tasks = Rtlf_workload.Workload.make spec in
      List.map
        (fun sync ->
          let sim = { W.spec; sync; horizon = Common.Fast; runs = 1 } in
          { W.spec; cfg = W.config sim ~seed:7 tasks })
        [ Common.lock_based; Common.lock_free ])
    [ 0.4; 0.8; 1.1 ]

let layer_inputs ?(runs = layer_runs) (w : W.t) ~seed =
  match w.kind with
  | W.Figures -> List.filteri (fun i _ -> i < runs) (blame_inputs ())
  | W.Sim sim -> W.inputs sim ~seed ~n:runs

(* (workload, traced runs, metrics, failures) *)
let layer_pass ?runs (w : W.t) ~seed =
  note "%s: per-layer pass" w.name;
  let inputs = layer_inputs ?runs w ~seed in
  let metrics, failures = Layers.measure inputs in
  (w.name, List.length inputs, metrics, failures)

(* Layer runs with at least one failure. *)
let failed_runs failures =
  List.length (List.sort_uniq compare (List.map fst failures))

(* --- output ----------------------------------------------------------- *)

let floats xs = Json.List (List.map (fun v -> Json.Float v) xs)

let metric_json ?samples (name, unit, value) =
  Json.Obj
    ([ ("name", Json.Str name); ("unit", Str unit); ("value", Float value) ]
    @
    match samples with
    | None -> []
    | Some s -> [ ("samples", floats s) ]
    )

let strings xs = Json.List (List.map (fun s -> Json.Str s) xs)

let workload_json m =
  let w = m.workload in
  let first = List.hd m.passes in
  let experiments =
    match w.kind with
    | W.Sim _ -> []
    | W.Figures ->
      (* One timestamp pair per experiment per pass: experiments.<name>_s *)
      [
        ( "experiments",
          Json.Obj
            (List.mapi
               (fun i name ->
                 ( name ^ "_s",
                   floats (List.map (fun p -> p.units.(i)) m.passes) ))
               m.experiments) );
      ]
  in
  Json.Obj
    ([
       ("name", Json.Str w.name);
       ("passes", Int (List.length m.passes));
       ("samples", Int (List.length m.passes * Array.length first.units));
       ("attempted", Int m.attempted);
       ("failed", Int m.failed);
       ("failed_ratio", Float (failed_ratio m));
       ("failures", strings m.failure_msgs);
       ("golden", Str m.golden);
       ("digests", strings (Array.to_list first.digests));
       ("wall_raw_s", floats (List.map (fun p -> p.wall_raw) m.passes));
       ("calibration_s", floats (List.map (fun p -> p.calibration) m.passes));
       ( "metrics",
         List
           (List.map
              (fun (n, u, v, s) -> metric_json ~samples:s (n, u, v))
              (e2e_metrics m)) );
     ]
    @ experiments)

let layers_json (name, runs, metrics, failures) =
  Json.Obj
    [
      ("workload", Json.Str name);
      ("runs", Int runs);
      ("failed", Int (failed_runs failures));
      ( "failures",
        strings
          (List.map (fun (r, m) -> Printf.sprintf "run %d: %s" r m) failures)
      );
      ("metrics", List (List.map (fun m -> metric_json m) metrics));
      ("spans", List (List.rev_map Layers.span_json !Layers.spans));
    ]

(* [workloads] and [layers] are already rendered: under --out each
   comes from a child process. *)
let document ~seed workloads layers =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("seed", Int seed);
      ( "host",
        Obj
          [
            ("ocaml", Str Sys.ocaml_version);
            ("word_size", Int Sys.word_size);
            ("domains", Int 1);
            ("load", Str "closed loop, one domain, one process per workload");
          ] );
      ("workloads", List workloads);
      ("layers", List layers);
    ]

let row w name v unit n =
  Printf.printf "%-13s %-29s %15.6g  %-7s %s\n%!" w name v unit n

(* One workload's rows of the --out table. *)
let print_rows m (_, runs, metrics, _) =
  let w = m.workload.name in
  let passes = List.length m.passes in
  let samples = passes * Array.length (List.hd m.passes).units in
  List.iter
    (fun (name, unit, v, s) ->
      let n =
        match name with
        | "setup_s" -> Printf.sprintf "median of %d reps" (List.length s)
        | "run_ms.p50" | "run_ms.p90" -> Printf.sprintf "%d samples" samples
        | "heap_peak_mb" -> "high-water mark after warm-up"
        | _ -> Printf.sprintf "median of %d passes" passes
      in
      row w name v unit n)
    (e2e_metrics m);
  row w "failed_ratio" (failed_ratio m) "-"
    (Printf.sprintf "%d/%d failed, golden %s" m.failed m.attempted m.golden);
  List.iter
    (fun (n, u, v) -> row w n v u (Printf.sprintf "%d traced runs" runs))
    metrics

(* The one-line result: every metric with all its digits. *)
let result_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, unit, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v
        unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* --- BENCHMARK.json --------------------------------------------------- *)

(* BENCHMARK.json must list exactly the workloads and metrics this
   program reports, in order; returns the disagreements. *)
let check_bench_json json ~e2e ~layers =
  let names_units key =
    List.map
      (fun m ->
        ( Compare.str (Compare.member "name" m),
          Compare.str (Compare.member "unit" m) ))
      (Compare.list (Compare.member key json))
  in
  let expect what got want =
    if got = want then []
    else
      [ Printf.sprintf "BENCHMARK.json %s: [%s], program reports [%s]" what
          (String.concat "; " (List.map (fun (n, u) -> n ^ " " ^ u) got))
          (String.concat "; " (List.map (fun (n, u) -> n ^ " " ^ u) want)) ]
  in
  let workloads =
    List.map
      (fun w -> (Compare.str (Compare.member "name" w), ""))
      (Compare.list (Compare.member "workloads" json))
  in
  expect "workloads" workloads (List.map (fun (w : W.t) -> (w.name, "")) W.all)
  @ expect "end_to_end" (names_units "end_to_end") e2e
  @ expect "per_layer" (names_units "per_layer") layers

(* --- modes ------------------------------------------------------------ *)

let find_workload name =
  match W.find name with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S (one of: %s)\n" name
      (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
    exit 2

let write_json path j =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

(* One workload's part of the --out document, measured in a process of
   its own: the major-heap high-water mark cannot be reset, and the
   calibration kernel leaves each workload's garbage collector in a
   slightly different state for the next. *)
let part (w : W.t) ~out ~seed ~golden_path =
  let m =
    measure w ~seed ~golden_path:(Some golden_path) ~budget:(Passes w.passes)
  in
  let layers = layer_pass w ~seed in
  write_json out
    (Json.Obj
       [ ("workload", workload_json m); ("layers", layers_json layers) ]);
  print_rows m layers;
  let _, _, _, failures = layers in
  if m.failed > 0 || failures <> [] then exit 1

(* Every workload in turn, each in a child process running [part]. *)
let full ~out ~seed ~golden_path =
  Printf.printf "%-13s %-29s %15s  %-7s %s\n%!" "workload" "metric" "value"
    "unit" "n";
  let parts, ok =
    List.fold_left
      (fun (parts, ok) (w : W.t) ->
        let file = out ^ "." ^ w.name in
        let args =
          [|
            Sys.executable_name; "--part"; w.name; "--out"; file; "--seed";
            string_of_int seed; "--golden"; golden_path;
          |]
        in
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
            Unix.stderr
        in
        let status = snd (Unix.waitpid [] pid) in
        let p = Json.of_string (Compare.read_file file) in
        Sys.remove file;
        (p :: parts, ok && status = Unix.WEXITED 0))
      ([], true) W.all
  in
  let parts = List.rev parts in
  write_json out
    (document ~seed
       (List.map (Compare.member "workload") parts)
       (List.map (Compare.member "layers") parts));
  if not ok then exit 1

let driver (w : W.t) ~seed ~seconds ~trace ~golden_path =
  if trace then begin
    let _, runs, metrics, failures = layer_pass w ~seed in
    List.iter (fun (r, m) -> Printf.eprintf "run %d: %s\n" r m) failures;
    let failed = failed_runs failures in
    print_endline
      (result_line ~correct:(failed = 0) ~attempted:runs ~failed metrics);
    if failed > 0 then exit 1
  end
  else begin
    let m =
      measure w ~seed ~golden_path:(Some golden_path)
        ~budget:(Seconds seconds)
    in
    List.iter prerr_endline m.failure_msgs;
    print_endline
      (result_line ~correct:(m.failed = 0) ~attempted:m.attempted
         ~failed:m.failed
         (List.map (fun (n, u, v, _) -> (n, u, v)) (e2e_metrics m)));
    if m.failed > 0 then exit 1
  end

let write_golden path =
  let first w =
    let m = measure w ~seed:default_seed ~golden_path:None ~budget:(Passes 1) in
    if m.failed > 0 then begin
      List.iter prerr_endline m.failure_msgs;
      exit 1
    end;
    (List.hd m.passes).digests
  in
  let b = Buffer.create 16384 in
  let quoted xs = List.map (Printf.sprintf "\"%s\"") xs in
  Printf.bprintf b "{\n  \"schema\": \"%s\",\n  \"seed\": %d,\n  \"runs\": {"
    golden_schema default_seed;
  let sims = List.filter (fun (w : W.t) -> w.kind <> W.Figures) W.all in
  List.iteri
    (fun i (w : W.t) ->
      Printf.bprintf b "%s\n    \"%s\": [\n      %s\n    ]"
        (if i = 0 then "" else ",")
        w.name
        (String.concat ",\n      " (quoted (Array.to_list (first w)))))
    sims;
  let exps =
    List.filter
      (fun (name, _) -> W.digested name)
      (List.combine experiment_names (Array.to_list (first W.figures)))
  in
  Printf.bprintf b "\n  },\n  \"experiments\": {\n    %s\n  }\n}\n"
    (String.concat ",\n    "
       (List.map
          (fun (name, d) -> Printf.sprintf "\"%s\": \"%s\"" name d)
          exps));
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b);
  Printf.printf "wrote %s\n" path

(* A few seconds' check for [dune runtest]: the first two runs of each
   simulator workload and fig1 against the goldens, figures-fast's first
   lock-based and lock-free traced runs through the per-layer pass, and
   the output document read back against its schema and
   BENCHMARK.json. *)
let smoke ~golden_path ~bench_json =
  progress := false;
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let measured =
    List.map
      (fun (w : W.t) ->
        let m =
          measure ~experiments:[ "fig1" ] ~runs:2 w ~seed:default_seed
            ~golden_path:(Some golden_path) ~budget:(Passes 1)
        in
        List.iter (error "%s: %s" w.name) m.failure_msgs;
        if m.golden <> "match" then error "%s: golden %s" w.name m.golden;
        m)
      W.all
  in
  let layers = [ layer_pass ~runs:2 W.figures ~seed:default_seed ] in
  let doc =
    Json.of_string
      (Json.to_string
         (document ~seed:default_seed
            (List.map workload_json measured)
            (List.map layers_json layers)))
  in
  (match Json.member "schema" doc with
  | Some (Json.Str s) when s = schema -> ()
  | _ -> error "document schema is not %s" schema);
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          match (Json.member "value" m, Json.member "unit" m) with
          | Some (Json.Float _ | Json.Int _), Some (Json.Str _) -> ()
          | _ -> error "metric without a numeric value and a unit")
        (Compare.list (Compare.member "metrics" w)))
    (Compare.list (Compare.member "workloads" doc)
    @ Compare.list (Compare.member "layers" doc));
  let e2e =
    List.map (fun (n, u, _, _) -> (n, u)) (e2e_metrics (List.hd measured))
  in
  let _, _, lm, failures = List.hd layers in
  List.iter (fun (r, m) -> error "layer run %d: %s" r m) failures;
  List.iter (error "%s")
    (check_bench_json
       (Json.of_string (Compare.read_file bench_json))
       ~e2e
       ~layers:(List.map (fun (n, u, _) -> (n, u)) lm));
  match List.rev !errors with
  | [] -> print_endline "smoke: ok"
  | errs ->
    List.iter prerr_endline errs;
    exit 1

let () =
  let out = ref "" and seed = ref default_seed and workload = ref "" in
  let seconds = ref 0.0 and trace = ref 0 and smoke_mode = ref false in
  let compare = ref [] and golden = ref "" and part_of = ref "" in
  let golden_path = ref "bench/e2e/golden.json" in
  let bench_json = ref "BENCHMARK.json" in
  let specs =
    [
      ("--out", Arg.Set_string out, "FILE run every workload, write FILE");
      ("--seed", Arg.Set_int seed, "N base seed (default 1)");
      ("--workload", Arg.Set_string workload, "W run one workload");
      ("--seconds", Arg.Set_float seconds, "S measured time for --workload");
      ("--trace", Arg.Set_int trace, "0|1 1: the per-layer pass instead");
      ("--smoke", Arg.Set smoke_mode, " quick golden and schema check");
      ( "--compare",
        Arg.Rest (fun f -> compare := f :: !compare),
        "PARENT.json CHANGE.json ... compare documents" );
      ("--write-golden", Arg.Set_string golden, "FILE regenerate the digests");
      ("--golden", Arg.Set_string golden_path, "FILE committed digests");
      ("--bench-json", Arg.Set_string bench_json, "FILE BENCHMARK.json");
      ("--part", Arg.Set_string part_of, "W one workload's part of --out");
    ]
  in
  let usage = "e2e.exe (--out FILE | --workload W ... | --compare ...)" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  if !compare <> [] then Compare.run ~bench_json:!bench_json (List.rev !compare)
  else if !smoke_mode then
    smoke ~golden_path:!golden_path ~bench_json:!bench_json
  else if !golden <> "" then write_golden !golden
  else if !workload <> "" then
    driver (find_workload !workload) ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1) ~golden_path:!golden_path
  else if !part_of <> "" && !out <> "" then
    part (find_workload !part_of) ~out:!out ~seed:!seed
      ~golden_path:!golden_path
  else if !out <> "" then full ~out:!out ~seed:!seed ~golden_path:!golden_path
  else begin
    Arg.usage specs usage;
    exit 2
  end
