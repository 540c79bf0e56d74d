type cause = Blocking | Preemption | Retrying | Abort_handling

type edge = {
  victim_task : int;
  culprit_task : int;
  cause : cause;
  obj : int;
  ns : int;
  charges : int;
}

type t = { edges : edge list; total_ns : int }

let cause_name = function
  | Blocking -> "blocking"
  | Preemption -> "preemption"
  | Retrying -> "retry"
  | Abort_handling -> "abort"

let cause_of_component = function
  | Attribution.Blocked -> Some Blocking
  | Attribution.Preempted -> Some Preemption
  | Attribution.Retry -> Some Retrying
  | Attribution.Abort_handler -> Some Abort_handling
  | Attribution.Own | Attribution.Sched | Attribution.Idle -> None

let of_attribution (a : Attribution.t) =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (j : Attribution.job) ->
      List.iter
        (fun (c : Attribution.charge) ->
          match cause_of_component c.Attribution.comp with
          | None -> ()
          | Some cause ->
            let culprit_task =
              if c.Attribution.by < 0 then -1
              else
                match Hashtbl.find_opt a.Attribution.task_of c.Attribution.by with
                | Some t -> t
                | None -> -1
            in
            let key =
              (j.Attribution.task, culprit_task, cause, c.Attribution.obj)
            in
            let ns, n =
              match Hashtbl.find_opt acc key with
              | Some (ns, n) -> (ns, n)
              | None -> (0, 0)
            in
            Hashtbl.replace acc key (ns + c.Attribution.ns, n + 1))
        j.Attribution.charges)
    a.Attribution.jobs;
  let edges =
    Hashtbl.fold
      (fun (victim_task, culprit_task, cause, obj) (ns, charges) l ->
        { victim_task; culprit_task; cause; obj; ns; charges } :: l)
      acc []
    |> List.sort (fun a b ->
           match compare b.ns a.ns with
           | 0 ->
             compare
               (a.victim_task, a.culprit_task, cause_name a.cause, a.obj)
               (b.victim_task, b.culprit_task, cause_name b.cause, b.obj)
           | c -> c)
  in
  let total_ns = List.fold_left (fun s e -> s + e.ns) 0 edges in
  { edges; total_ns }

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str "rtlf-blame-v1");
      ("total_ns", Json.Int t.total_ns);
      ( "edges",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("victim_task", Json.Int e.victim_task);
                   ("culprit_task", Json.Int e.culprit_task);
                   ("cause", Json.Str (cause_name e.cause));
                   ("obj", Json.Int e.obj);
                   ("ns", Json.Int e.ns);
                   ("charges", Json.Int e.charges);
                 ])
             t.edges) );
    ]

(* --- rendering -------------------------------------------------------- *)

(* obs sits below rtlf_experiments in the dependency order, so it
   cannot reuse Report.table; this mini renderer covers the two tables
   [rtlf explain] needs. *)
let table fmt ~header ~rows =
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (List.iteri (fun i cell ->
         if i < Array.length widths then
           widths.(i) <- max widths.(i) (String.length cell)))
    rows;
  let pad i s = s ^ String.make (widths.(i) - String.length s) ' ' in
  let line cells =
    Format.fprintf fmt "%s@." (String.concat "  " (List.mapi pad cells))
  in
  line header;
  Format.fprintf fmt "%s@."
    (String.concat "--"
       (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  List.iter line rows

let ns_str ns =
  if ns >= 1_000_000_000 then Printf.sprintf "%.2fs" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then
    Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Printf.sprintf "%.2fus" (float_of_int ns /. 1e3)
  else Printf.sprintf "%dns" ns

let pct part whole =
  if whole = 0 then "-"
  else Printf.sprintf "%.1f%%" (100.0 *. float_of_int part /. float_of_int whole)

let name_of id = if id < 0 then "?" else string_of_int id

let render ?top ?task fmt t =
  let edges =
    match task with
    | None -> t.edges
    | Some tid ->
      List.filter
        (fun e -> e.victim_task = tid || e.culprit_task = tid)
        t.edges
  in
  let shown, cut =
    match top with
    | Some k when k >= 0 && List.length edges > k ->
      (List.filteri (fun i _ -> i < k) edges, List.length edges - k)
    | _ -> (edges, 0)
  in
  if edges = [] then Format.fprintf fmt "no blame edges (no interference)@."
  else begin
    let rows =
      List.map
        (fun e ->
          [
            "T" ^ string_of_int e.victim_task;
            "T" ^ name_of e.culprit_task;
            cause_name e.cause;
            (if e.obj < 0 then "-" else "o" ^ string_of_int e.obj);
            ns_str e.ns;
            pct e.ns t.total_ns;
            string_of_int e.charges;
          ])
        shown
    in
    table fmt
      ~header:[ "victim"; "culprit"; "cause"; "obj"; "ns"; "share"; "jobs" ]
      ~rows;
    if cut > 0 then Format.fprintf fmt "... +%d more edge(s)@." cut
  end

let component_rows (j : Attribution.job) =
  [
    (Attribution.Own, j.Attribution.own);
    (Attribution.Retry, j.Attribution.retry);
    (Attribution.Blocked, j.Attribution.blocked);
    (Attribution.Preempted, j.Attribution.preempted);
    (Attribution.Sched, j.Attribution.sched);
    (Attribution.Abort_handler, j.Attribution.abort_handler);
    (Attribution.Idle, j.Attribution.idle);
  ]

let render_job fmt (j : Attribution.job) =
  Format.fprintf fmt "J%d (task %d): %s, sojourn %s (arrival %dns -> %dns)@."
    j.Attribution.jid j.Attribution.task
    (match j.Attribution.outcome with
    | Attribution.Completed -> "completed"
    | Attribution.Aborted -> "aborted")
    (ns_str j.Attribution.sojourn)
    j.Attribution.arrival j.Attribution.resolved_at;
  let rows =
    List.filter_map
      (fun (comp, ns) ->
        if ns = 0 then None
        else
          Some
            [
              Attribution.component_name comp;
              ns_str ns;
              pct ns j.Attribution.sojourn;
            ])
      (component_rows j)
  in
  table fmt ~header:[ "component"; "ns"; "share" ] ~rows;
  let culprits =
    List.filter (fun (c : Attribution.charge) -> c.Attribution.by >= 0)
      j.Attribution.charges
  in
  if culprits <> [] then begin
    Format.fprintf fmt "charged to:@.";
    List.iter
      (fun (c : Attribution.charge) ->
        Format.fprintf fmt "  %s <- J%d%s: %s@."
          (Attribution.component_name c.Attribution.comp)
          c.Attribution.by
          (if c.Attribution.obj >= 0 then
             Printf.sprintf " (o%d)" c.Attribution.obj
           else "")
          (ns_str c.Attribution.ns))
      culprits
  end;
  match j.Attribution.loss with
  | None -> ()
  | Some l ->
    Format.fprintf fmt
      "utility: max %.3f, accrued %.3f, loss %.3f (self %.3f, retry %.3f, \
       blocked %.3f, preempted %.3f, sched %.3f, abort %.3f, idle %.3f)@."
      j.Attribution.max_utility j.Attribution.accrued
      (j.Attribution.max_utility -. j.Attribution.accrued)
      l.Attribution.u_self l.Attribution.u_retry l.Attribution.u_blocked
      l.Attribution.u_preempted l.Attribution.u_sched l.Attribution.u_abort
      l.Attribution.u_idle

let render_summary fmt (a : Attribution.t) =
  let total field =
    List.fold_left (fun s j -> s + field j) 0 a.Attribution.jobs
  in
  let sojourn = total (fun j -> j.Attribution.sojourn) in
  let rows =
    [
      (Attribution.Own, total (fun j -> j.Attribution.own));
      (Attribution.Retry, total (fun j -> j.Attribution.retry));
      (Attribution.Blocked, total (fun j -> j.Attribution.blocked));
      (Attribution.Preempted, total (fun j -> j.Attribution.preempted));
      (Attribution.Sched, total (fun j -> j.Attribution.sched));
      ( Attribution.Abort_handler,
        total (fun j -> j.Attribution.abort_handler) );
      (Attribution.Idle, total (fun j -> j.Attribution.idle));
    ]
  in
  let completed, aborted =
    List.fold_left
      (fun (c, ab) j ->
        match j.Attribution.outcome with
        | Attribution.Completed -> (c + 1, ab)
        | Attribution.Aborted -> (c, ab + 1))
      (0, 0) a.Attribution.jobs
  in
  Format.fprintf fmt
    "%d job(s) resolved (%d completed, %d aborted), %d in flight, %d trace \
     event(s)@."
    (List.length a.Attribution.jobs)
    completed aborted a.Attribution.in_flight a.Attribution.events;
  table fmt
    ~header:[ "component"; "total"; "share" ]
    ~rows:
      (List.map
         (fun (comp, ns) ->
           [ Attribution.component_name comp; ns_str ns; pct ns sojourn ])
         rows);
  (match Attribution.check a with
  | Ok () ->
    Format.fprintf fmt "conservation: OK (components sum to sojourn, %s total)@."
      (ns_str sojourn)
  | Error msg -> Format.fprintf fmt "conservation: VIOLATED@.%s@." msg);
  if a.Attribution.anomalies > 0 then
    Format.fprintf fmt "anomalies: %d retry clamp(s)@." a.Attribution.anomalies
