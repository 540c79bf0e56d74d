(* The digest pins: the fixed grids of configs and the digest documents
   that record their results, shared by test_smp_diff and the generator
   test/gen/gen_m1_digests.exe. The m = 1 grid pins the single-core
   semantics; the smp grid re-runs its random and nested configs at 2
   and 4 cores so that a refactor of the m-core dispatcher shows.

   Every config is fixed-seed (the root seed is [default_seed], not
   RTLF_SEED): the committed test/golden/m1_digests.json and
   smp_digests.json were generated from exactly these grids, so changing
   them invalidates the files. The exporter pin export_digests.json
   covers both grids and one trace that dropped entries. *)

module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf
module Uam = Rtlf_model.Uam
module Segment = Rtlf_model.Segment
module Sync = Rtlf_sim.Sync
module Simulator = Rtlf_sim.Simulator
module Workload = Rtlf_workload.Workload
module Json = Rtlf_obs.Json
module Spans = Rtlf_obs.Spans
module Chrome_trace = Rtlf_obs.Chrome_trace
module Timeline = Rtlf_obs.Timeline
module Attribution = Rtlf_obs.Attribution
module Blame = Rtlf_obs.Blame

let seed = Test_support.default_seed

let syncs =
  [
    ("ideal", Sync.Ideal);
    ("lock-free", Sync.Lock_free { overhead = 150 });
    ("lock-based", Sync.Lock_based { overhead = 2_000 });
    ("spin-ticket", Sync.Spin { overhead = 800; kind = Sync.Ticket });
    ("spin-mcs", Sync.Spin { overhead = 800; kind = Sync.Mcs });
  ]

let scheds =
  [ ("rua", Simulator.Rua); ("edf", Simulator.Edf); ("edf-pip", Simulator.Edf_pip) ]

let dispatches =
  [ ("global", Simulator.Global); ("partitioned", Simulator.Partitioned) ]

let spec_gen =
  QCheck.Gen.(
    let* n_tasks = int_range 2 8 in
    let* n_objects = int_range 1 5 in
    let* accesses = int_range 0 5 in
    let* load10 = int_range 2 14 in
    let* burst = int_range 1 3 in
    let* hetero = bool in
    let* seed = int_range 1 10_000 in
    return
      {
        Workload.default with
        Workload.n_tasks;
        n_objects;
        accesses_per_job = accesses;
        target_al = float_of_int load10 /. 10.0;
        tuf_class =
          (if hetero then Workload.Heterogeneous else Workload.Step_only);
        mean_exec = 50_000;
        access_work = 2_000;
        burst;
        seed;
      })

(* [spec<k>/...] labels: k indexes the drawn specs, whose own seeds may
   collide. *)
let specs =
  List.mapi
    (fun k spec -> (Printf.sprintf "spec%d" k, spec))
    (QCheck.Gen.generate ~rand:(Random.State.make [| seed |]) ~n:8 spec_gen)

let config_of ?retry_on_any_preemption ?dispatch ?(cores = 1) ~sync ~sched
    spec =
  Simulator.config ~tasks:(Workload.make spec) ~sync ~sched
    ~horizon:(20 * 50_000 * spec.Workload.n_tasks)
    ~seed:(seed + spec.Workload.seed) ?retry_on_any_preemption ~trace:true
    ~cores ?dispatch ()

let random_at cores =
  List.concat_map
    (fun (name, spec) ->
      List.concat_map
        (fun (sync_name, sync) ->
          List.concat_map
            (fun (sched_name, sched) ->
              List.map
                (fun (disp_name, dispatch) ->
                  ( String.concat "/" [ name; sync_name; sched_name; disp_name ],
                    config_of ~sync ~sched ~dispatch ~cores spec ))
                dispatches)
            scheds)
        syncs)
    specs

let random = random_at 1

(* Lemma 1's adversary: any preemption inside a lock-free attempt
   forces a retry. *)
let adversarial =
  List.map
    (fun (name, spec) ->
      ( name ^ "/adversarial",
        config_of ~retry_on_any_preemption:true
          ~sync:(Sync.Lock_free { overhead = 150 })
          ~sched:Simulator.Rua spec ))
    specs

(* Nested critical sections (Lock/Unlock markers), including the
   deadlock-forming pair under lock-based RUA: exercises victim
   aborts, release chains, and the spin engine's Lock/Unlock path. *)
let nested_at cores =
  let us n = n * 1_000 in
  let profile first second =
    [
      Segment.Lock first;
      Segment.Compute (us 1000);
      Segment.Lock second;
      Segment.Compute (us 50);
      Segment.Unlock second;
      Segment.Unlock first;
      Segment.Compute (us 20);
    ]
  in
  let tasks =
    [
      Task.make_nested ~id:0 ~name:"forward"
        ~tuf:(Tuf.step ~height:2.0 ~c:(us 4500))
        ~arrival:(Uam.periodic ~period:(us 5000))
        ~profile:(profile 0 1) ~abort_cost:(us 5) ();
      Task.make_nested ~id:1 ~name:"backward"
        ~tuf:(Tuf.step ~height:1.0 ~c:(us 3000))
        ~arrival:(Uam.periodic ~period:(us 4700))
        ~profile:(profile 1 0) ~abort_cost:(us 3) ();
    ]
  in
  List.map
    (fun (sync_name, sync) ->
      ( "nested/" ^ sync_name,
        Simulator.config ~tasks ~sync ~n_objects:2 ~horizon:(us 100_000)
          ~seed:3 ~trace:true ~cores () ))
    syncs

let nested = nested_at 1
let all = random @ adversarial @ nested

let smp =
  List.concat_map
    (fun cores ->
      List.map
        (fun (label, cfg) -> (Printf.sprintf "m%d/%s" cores label, cfg))
        (random_at cores @ nested_at cores))
    [ 2; 4 ]

type document = {
  name : string;
  schema : string;
  grid : (string * Simulator.config) list;
}

let m1_document = { name = "m1"; schema = "rtlf-m1-digests-v1"; grid = all }
let smp_document = { name = "smp"; schema = "rtlf-smp-digests-v1"; grid = smp }

(* One 4-core lock-based run whose ring buffer dropped most of its
   entries: its first entries name jobs whose arrival was lost. *)
let dropped =
  let label = "m4/spec0/lock-based/rua/global" in
  let cfg = List.assoc label smp in
  [ (label ^ "/capacity200", { cfg with trace_capacity = Some 200 }) ]

let export_document =
  {
    name = "export";
    schema = "rtlf-export-digests-v1";
    grid = all @ smp @ dropped;
  }

let md5 s = Digest.to_hex (Digest.string s)

let digests result =
  List.map (fun (group, s) -> (group, md5 s)) (Test_support.fingerprint result)

(* The blame document, then one line per resolved job: its window, its
   seven components and its charges. *)
let attribution trace =
  match Attribution.of_trace trace with
  | Error e -> e
  | Ok a ->
    let job (j : Attribution.job) =
      Printf.sprintf "J%d %d-%d %d %d %d %d %d %d %d%s" j.jid j.arrival
        j.resolved_at j.own j.retry j.blocked j.preempted j.sched
        j.abort_handler j.idle
        (String.concat ""
           (List.map
              (fun (c : Attribution.charge) ->
                Printf.sprintf " %s:%d:%d:%d"
                  (Attribution.component_name c.comp) c.by c.obj c.ns)
              j.charges))
    in
    String.concat "\n"
      (Json.to_string (Blame.to_json (Blame.of_attribution a))
       :: List.map job a.jobs)

let export_digests (result : Simulator.result) =
  let trace = result.trace in
  let spans = Spans.of_trace trace in
  let timeline buckets max_jobs =
    md5 (Timeline.render (Timeline.build ~buckets ~max_jobs trace))
  in
  [
    ("chrome", md5 (Chrome_trace.to_string trace));
    ( "spans",
      md5
        (String.concat " "
           (List.map
              (fun l -> string_of_int (List.length l))
              [ spans.running; spans.blocking; spans.retries; spans.accesses;
                spans.sched ])) );
  ]
  @
  (* A timeline and an attribution need a complete trace. *)
  if Rtlf_sim.Trace.dropped trace > 0 then []
  else
    [
      ("timeline72x20", timeline 72 20);
      ("timeline100x24", timeline 100 24);
      ("attribution", md5 (attribution trace));
    ]

let diverging digest want configs =
  List.filter_map
    (fun (label, cfg) ->
      let want = List.assoc label want in
      match
        List.filter_map
          (fun (group, hex) ->
            if List.assoc_opt group want = Some hex then None else Some group)
          (digest (Simulator.run cfg))
      with
      | [] -> None
      | groups ->
        Some (Printf.sprintf "%s: %s" label (String.concat ", " groups)))
    configs

(* One config per line, in grid order, so a regenerated file diffs
   line by line. *)
let to_string doc configs =
  let line (label, groups) =
    Json.to_string (Json.Str label)
    ^ ":"
    ^ Json.to_string
        (Json.Obj (List.map (fun (g, h) -> (g, Json.Str h)) groups))
  in
  Printf.sprintf "{\"schema\":%s,\"seed\":%d,\"configs\":{\n%s}}\n"
    (Json.to_string (Json.Str doc.schema))
    seed
    (String.concat ",\n" (List.map line configs))

let check_document doc json =
  let groups = function
    | Json.Obj gs ->
      List.filter_map
        (function g, Json.Str h -> Some (g, h) | _ -> None)
        gs
    | _ -> []
  in
  let missing xs ys = List.find_opt (fun (l, _) -> not (List.mem_assoc l ys)) xs in
  let error fmt =
    Printf.ksprintf (fun e -> Error (doc.name ^ " digests: " ^ e)) fmt
  in
  match (Json.member "schema" json, Json.member "configs" json) with
  | None, _ -> error "no schema tag"
  | Some (Json.Str s), _ when s <> doc.schema ->
    error "schema tag %S, expected %S" s doc.schema
  | Some (Json.Str _), Some (Json.Obj configs) -> (
    match (missing doc.grid configs, missing configs doc.grid) with
    | Some (l, _), _ -> error "grid config %s has no digest" l
    | None, Some (l, _) -> error "digest %s has no grid config" l
    | None, None -> Ok (List.map (fun (l, g) -> (l, groups g)) configs))
  | Some (Json.Str _), _ -> error "no configs object"
  | Some _, _ -> error "schema tag is not a string"
