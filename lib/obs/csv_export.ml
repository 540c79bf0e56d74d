module Trace = Rtlf_sim.Trace
module Contention = Rtlf_sim.Contention

let header = "time_ns,event,jid,obj,extra"

let row { Trace.time; kind } =
  let r name ?jid ?obj ?(extra = "") () =
    let cell = function Some v -> string_of_int v | None -> "" in
    Printf.sprintf "%d,%s,%s,%s,%s" time name (cell jid) (cell obj) extra
  in
  match kind with
  | Trace.Arrive (jid, task, at) ->
    r "arrive" ~jid ~extra:(Printf.sprintf "task=%d;at=%d" task at) ()
  | Trace.Start (jid, core) ->
    r "start" ~jid ~extra:(Printf.sprintf "core=%d" core) ()
  | Trace.Migrate (jid, from_c, to_c) ->
    r "migrate" ~jid ~extra:(Printf.sprintf "from=%d;to=%d" from_c to_c) ()
  | Trace.Preempt (jid, by) ->
    r "preempt" ~jid ~extra:(Printf.sprintf "by=%d" by) ()
  | Trace.Block (jid, obj) -> r "block" ~jid ~obj ()
  | Trace.Wake (jid, obj) -> r "wake" ~jid ~obj ()
  | Trace.Acquire (jid, obj) -> r "acquire" ~jid ~obj ()
  | Trace.Release (jid, obj) -> r "release" ~jid ~obj ()
  | Trace.Retry (jid, obj, by, lost) ->
    r "retry" ~jid ~obj ~extra:(Printf.sprintf "by=%d;lost=%d" by lost) ()
  | Trace.Access_done (jid, obj) -> r "access_done" ~jid ~obj ()
  | Trace.Complete jid -> r "complete" ~jid ()
  | Trace.Abort (jid, handler) ->
    r "abort" ~jid ~extra:(Printf.sprintf "handler=%d" handler) ()
  | Trace.Sched (ops, cost) ->
    r "sched" ~extra:(Printf.sprintf "ops=%d;cost=%d" ops cost) ()

let to_string trace =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Trace.iter
    (fun e ->
      Buffer.add_string buf (row e);
      Buffer.add_char buf '\n')
    trace;
  Buffer.contents buf

let write_file ~path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string trace))

(* --- parser -------------------------------------------------------------- *)

(* The CSV export is lossless, so a trace written by [to_string] can be
   re-ingested for offline analysis ([rtlf explain --from-trace]). *)

exception Bad_row of string

let parse_extra extra =
  (* "k1=v1;k2=v2" -> assoc list; empty string -> []. *)
  if extra = "" then []
  else
    String.split_on_char ';' extra
    |> List.map (fun kv ->
           match String.index_opt kv '=' with
           | None -> raise (Bad_row ("malformed extra field: " ^ kv))
           | Some i ->
             ( String.sub kv 0 i,
               String.sub kv (i + 1) (String.length kv - i - 1) ))

let parse_row line =
  let fail msg = raise (Bad_row (msg ^ ": " ^ line)) in
  let int_field name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail (Printf.sprintf "bad %s %S" name v)
  in
  (* Times, durations, counts, jids, task ids, objects and cores are
     never negative in a trace the simulator writes (its clock starts
     at 0); [by=-1] (no preemptor or winner) is. *)
  let nat_field name v =
    let n = int_field name v in
    if n < 0 then fail (Printf.sprintf "negative %s %d" name n);
    n
  in
  match String.split_on_char ',' line with
  | [ time; event; jid; obj; extra ] ->
    let time = nat_field "time" time in
    let jid () = nat_field "jid" jid in
    let obj () = nat_field "obj" obj in
    let extras = parse_extra extra in
    let extra_field field ?default key =
      match (List.assoc_opt key extras, default) with
      | Some v, _ -> field key v
      | None, Some d -> d
      | None, None -> fail (Printf.sprintf "missing extra %S" key)
    in
    let extra_int = extra_field int_field in
    let extra_nat = extra_field nat_field in
    let kind =
      match event with
      | "arrive" ->
        (* Traces written before the causal-attribution payloads carry
           no [at=]; fall back to the processing time. *)
        Trace.Arrive (jid (), extra_nat "task", extra_nat ~default:time "at")
      | "start" ->
        (* Traces written before the SMP engine carry no [core=]. *)
        Trace.Start (jid (), extra_nat ~default:0 "core")
      | "migrate" ->
        Trace.Migrate (jid (), extra_nat "from", extra_nat "to")
      | "preempt" -> Trace.Preempt (jid (), extra_int ~default:(-1) "by")
      | "block" -> Trace.Block (jid (), obj ())
      | "wake" -> Trace.Wake (jid (), obj ())
      | "acquire" -> Trace.Acquire (jid (), obj ())
      | "release" -> Trace.Release (jid (), obj ())
      | "retry" ->
        Trace.Retry
          (jid (), obj (), extra_int ~default:(-1) "by",
           extra_nat ~default:0 "lost")
      | "access_done" -> Trace.Access_done (jid (), obj ())
      | "complete" -> Trace.Complete (jid ())
      | "abort" -> Trace.Abort (jid (), extra_nat ~default:0 "handler")
      | "sched" -> Trace.Sched (extra_nat "ops", extra_nat "cost")
      | other -> fail (Printf.sprintf "unknown event %S" other)
    in
    { Trace.time; kind }
  | _ -> fail "expected 5 comma-separated fields"

let of_string s =
  match String.split_on_char '\n' s with
  | [] -> Error "empty trace CSV"
  | hd :: rows ->
    if String.trim hd <> header then
      Error (Printf.sprintf "bad header %S (expected %S)" hd header)
    else begin
      (* Line 1 is the header; [lines] holds each entry's line number,
         newest first. *)
      let line_no = ref 1 and lines = ref [] in
      let trace = Trace.create ~enabled:true () in
      match
        List.iter
          (fun line ->
            incr line_no;
            if String.trim line <> "" then begin
              let e = parse_row line in
              Trace.record trace ~time:e.Trace.time e.Trace.kind;
              lines := !line_no :: !lines
            end)
          rows
      with
      | exception Bad_row msg ->
        Error (Printf.sprintf "line %d: %s" !line_no msg)
      | () -> (
        match Trace.violation trace with
        | None -> Ok trace
        | Some (i, msg) ->
          let lines = Array.of_list (List.rev !lines) in
          Error (Printf.sprintf "line %d: %s" lines.(i) msg))
    end

let read_file ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

(* --- contention profile ------------------------------------------------- *)

let contention_header =
  "obj,acquires,conflicts,retries,blocked_ns,max_queue_depth"

let contention_row (c : Contention.t) =
  Printf.sprintf "%d,%d,%d,%d,%d,%d" c.Contention.obj c.Contention.acquires
    c.Contention.conflicts c.Contention.retries c.Contention.blocked_ns
    c.Contention.max_queue_depth

let contention_to_string profile =
  let buf = Buffer.create 512 in
  Buffer.add_string buf contention_header;
  Buffer.add_char buf '\n';
  Array.iter
    (fun c ->
      Buffer.add_string buf (contention_row c);
      Buffer.add_char buf '\n')
    profile;
  Buffer.contents buf

let write_contention_file ~path profile =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (contention_to_string profile))
