module Task = Rtlf_model.Task
module Job = Rtlf_model.Job

type algo = Rua_lf | Edf

type stats = { decides : int; pattern_hits : int; delegated : int }

let zero_stats = { decides = 0; pattern_hits = 0; delegated = 0 }

let add_stats a b =
  {
    decides = a.decides + b.decides;
    pattern_hits = a.pattern_hits + b.pattern_hits;
    delegated = a.delegated + b.delegated;
  }

(* --- plan: the release-pattern table ------------------------------------ *)

(* Subset masks are single OCaml ints: slots 0..61 keep [1 lsl slot]
   positive on 63-bit ints. *)
let mask_bits = 62

(* Below this virtual time, [float_of_int] of any completion time the
   decider compares is exact, so decisions on a fresh release depend
   only on (subset, now - arrival) — the translation invariance the
   table relies on. *)
let exact_bound = 1 lsl 52

(* Keeps the table O(1)-bounded rather than load-dependent. *)
let max_patterns = 512

type profile = {
  task : Task.t;  (* compared physically: a same-id task value differs *)
  slot : int;  (* position in task-id order; mask bit when < mask_bits *)
  critical : int;  (* relative to arrival *)
  fresh_rem : int;  (* remaining cost of a fresh job under the plan *)
}

(* A decision in position space: positions index the release's live
   jobs in task-id order; -1 dispatches nothing. *)
type template = {
  t_dispatch : int;
  t_rejected : int array;  (* in PUD-rank (probe) order *)
  t_schedule : int array;  (* in schedule (ECF) order *)
  t_ops : int;
}

type plan = {
  profiles : (int, profile) Hashtbl.t;
  patterns : (int * int, template) Hashtbl.t;
}

let profile plan (task : Task.t) =
  match Hashtbl.find_opt plan.profiles task.Task.id with
  | Some p when p.task == task -> Some p
  | _ -> None

(* Record [d], a decision on the release keyed [(mask, delta)], through
   [pos] (jid -> position, raising [Not_found] for a job outside the
   release, which leaves the table unchanged). *)
let learn plan ~mask ~delta ~pos (d : Scheduler.decision) =
  if
    Hashtbl.length plan.patterns < max_patterns
    && not (Hashtbl.mem plan.patterns (mask, delta))
  then
    match
      {
        t_dispatch =
          (match d.Scheduler.dispatch with
          | None -> -1
          | Some j -> pos j.Job.jid);
        t_rejected = Array.of_list (List.map pos d.Scheduler.rejected);
        t_schedule =
          Array.of_list
            (List.map (fun j -> pos j.Job.jid) d.Scheduler.schedule);
        t_ops = d.Scheduler.ops;
      }
    with
    | tpl -> Hashtbl.replace plan.patterns (mask, delta) tpl
    | exception Not_found -> ()

(* Run the real decider on a synthetic fresh release of [tasks] (in
   list order, jid = position, arrival = 0, decided at the release
   instant) and record it under [mask]. *)
let synthesise plan ~remaining ~mask tasks =
  let jobs =
    Array.of_list
      (List.mapi (fun i task -> Job.create ~task ~jid:i ~arrival:0) tasks)
  in
  let d = (Rua_lock_free.make ()).Scheduler.decide ~now:0 ~jobs ~remaining in
  learn plan ~mask ~delta:0 ~pos:Fun.id d

let plan ~tasks ~remaining =
  let plan = { profiles = Hashtbl.create 64; patterns = Hashtbl.create 64 } in
  let sorted =
    List.sort (fun (a : Task.t) (b : Task.t) -> Int.compare a.Task.id b.Task.id)
      tasks
  in
  List.iteri
    (fun slot task ->
      Hashtbl.replace plan.profiles task.Task.id
        {
          task;
          slot;
          critical = Task.critical_time task;
          fresh_rem = remaining (Job.create ~task ~jid:0 ~arrival:0);
        })
    sorted;
  (* Ahead of time: each singleton release, plus the full synchronized
     release, at the release instant. *)
  List.iteri
    (fun slot task ->
      if slot < mask_bits then
        synthesise plan ~remaining ~mask:(1 lsl slot) [ task ])
    sorted;
  let n = List.length sorted in
  if n > 1 && n <= mask_bits then
    synthesise plan ~remaining ~mask:((1 lsl n) - 1) sorted;
  plan

(* --- the scheduler ------------------------------------------------------ *)

type t = {
  plan : plan;
  fallback : Scheduler.t;
  algo : algo;
  mutable n_decides : int;
  mutable n_pattern : int;
  mutable n_delegated : int;
  (* scratch: array index of the p-th live job, for pattern replay *)
  mutable live_idx : int array;
}

let delegate t ~now ~jobs ~remaining =
  t.n_delegated <- t.n_delegated + 1;
  t.fallback.Scheduler.decide ~now ~jobs ~remaining

let replay t ~jobs tpl =
  t.n_pattern <- t.n_pattern + 1;
  let get p = jobs.(t.live_idx.(p)) in
  {
    Scheduler.dispatch =
      (if tpl.t_dispatch < 0 then None else Some (get tpl.t_dispatch));
    aborts = [];
    rejected =
      Array.fold_right (fun p acc -> (get p).Job.jid :: acc) tpl.t_rejected [];
    schedule = Array.fold_right (fun p acc -> get p :: acc) tpl.t_schedule [];
    ops = tpl.t_ops;
  }

(* A release is pattern-eligible iff every live job is [Ready] at its
   planned task's fresh cost, all share one arrival, and (task id, jid)
   both strictly increase along the array — which pins the
   position<->job correspondence the templates are expressed in. The
   scan stops at the first job that breaks this. *)
let decide_rua t ~now ~jobs ~remaining =
  let n = Array.length jobs in
  if Array.length t.live_idx < n then t.live_idx <- Array.make (max n 16) 0;
  let fresh = ref true and i = ref 0 and k = ref 0 in
  let mask = ref 0 and base = ref min_int and max_crit = ref 0 in
  let last_tid = ref min_int and last_jid = ref min_int in
  while !fresh && !i < n do
    let j = jobs.(!i) in
    if Job.is_live j then begin
      t.live_idx.(!k) <- !i;
      incr k;
      match (j.Job.state, profile t.plan j.Job.task) with
      | Job.Ready, Some p
        when p.slot < mask_bits
             && (!base = min_int || j.Job.arrival = !base)
             && j.Job.task.Task.id > !last_tid
             && j.Job.jid > !last_jid
             && remaining j = p.fresh_rem ->
        base := j.Job.arrival;
        last_tid := j.Job.task.Task.id;
        last_jid := j.Job.jid;
        mask := !mask lor (1 lsl p.slot);
        max_crit := max !max_crit p.critical
      | _ -> fresh := false
    end;
    incr i
  done;
  let k = !k and delta = now - !base in
  if
    !fresh && k > 0 && !base >= 0 && delta >= 0
    && !base + !max_crit < exact_bound
  then
    match Hashtbl.find_opt t.plan.patterns (!mask, delta) with
    | Some tpl -> replay t ~jobs tpl
    | None ->
      let d = delegate t ~now ~jobs ~remaining in
      let pos jid =
        let rec go p =
          if p >= k then raise Not_found
          else if jobs.(t.live_idx.(p)).Job.jid = jid then p
          else go (p + 1)
        in
        go 0
      in
      learn t.plan ~mask:!mask ~delta ~pos d;
      d
  else delegate t ~now ~jobs ~remaining

let decide t ~now ~jobs ~remaining =
  t.n_decides <- t.n_decides + 1;
  match t.algo with
  | Edf -> delegate t ~now ~jobs ~remaining
  | Rua_lf -> decide_rua t ~now ~jobs ~remaining

let create ~plan ~fallback ~algo =
  {
    plan;
    fallback;
    algo;
    n_decides = 0;
    n_pattern = 0;
    n_delegated = 0;
    live_idx = [||];
  }

let scheduler t =
  {
    Scheduler.name = t.fallback.Scheduler.name;
    decide = (fun ~now ~jobs ~remaining -> decide t ~now ~jobs ~remaining);
  }

let stats t =
  {
    decides = t.n_decides;
    pattern_hits = t.n_pattern;
    delegated = t.n_delegated;
  }
