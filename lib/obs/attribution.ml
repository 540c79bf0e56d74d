module Trace = Rtlf_sim.Trace
module Task = Rtlf_model.Task
module Tuf = Rtlf_model.Tuf

type component =
  | Own
  | Retry
  | Blocked
  | Preempted
  | Sched
  | Abort_handler
  | Idle

type charge = { comp : component; by : int; obj : int; ns : int }

type outcome = Completed | Aborted

type uloss = {
  u_self : float;
  u_retry : float;
  u_blocked : float;
  u_preempted : float;
  u_sched : float;
  u_abort : float;
  u_idle : float;
}

type job = {
  jid : int;
  task : int;
  arrival : int;
  resolved_at : int;
  outcome : outcome;
  sojourn : int;
  own : int;
  retry : int;
  blocked : int;
  preempted : int;
  sched : int;
  abort_handler : int;
  idle : int;
  charges : charge list;
  max_utility : float;
  accrued : float;
  loss : uloss option;
}

type t = {
  jobs : job list;
  task_of : (int, int) Hashtbl.t;
  in_flight : int;
  events : int;
  last_time : int;
  elapsed_s : float;
  anomalies : int;
}

let component_name = function
  | Own -> "own"
  | Retry -> "retry"
  | Blocked -> "blocked"
  | Preempted -> "preempted"
  | Sched -> "sched"
  | Abort_handler -> "abort"
  | Idle -> "idle"

let components_total j =
  j.own + j.retry + j.blocked + j.preempted + j.sched + j.abort_handler
  + j.idle

let interference j = j.sojourn - j.own

let find t ~jid = List.find_opt (fun j -> j.jid = jid) t.jobs

(* --- the sweep ------------------------------------------------------- *)

(* Mutable per-job accumulator while the job is live, beside the
   walker's record of the job. [Own]/[Sched]/[Idle] have no culprit and
   stay plain counters; the attributed components accumulate per
   (component, culprit, object). *)
type acc = {
  a_job : Trace.job;
  mutable a_own : int;
  mutable a_sched : int;
  mutable a_idle : int;
  a_charges : (component * int * int, int ref) Hashtbl.t;
}

let add_charge acc comp ~by ~obj ns =
  if ns <> 0 then begin
    let key = (comp, by, obj) in
    match Hashtbl.find_opt acc.a_charges key with
    | Some r -> r := !r + ns
    | None -> Hashtbl.replace acc.a_charges key (ref ns)
  end

let charge_sum acc comp =
  Hashtbl.fold
    (fun (c, _, _) r total -> if c = comp then total + !r else total)
    acc.a_charges 0

let charge_list acc =
  Hashtbl.fold
    (fun (comp, by, obj) r l -> { comp; by; obj; ns = !r } :: l)
    acc.a_charges []
  |> List.sort (fun a b ->
         match compare b.ns a.ns with
         | 0 -> compare (a.comp, a.by, a.obj) (b.comp, b.by, b.obj)
         | c -> c)

(* Utility-loss decomposition against the job's TUF. The interference
   loss — utility the job would have kept had it completed after just
   its own execution — is split across the interference components in
   proportion to their ns share of the delay; [u_self] is whatever
   remains (TUF decay over own execution plus float residual), computed
   by subtraction so the components sum to the loss bit-exactly. *)
let decompose_loss ~tuf j =
  let maxu = Tuf.max_utility tuf in
  let accrued =
    match j.outcome with
    | Completed -> Tuf.utility tuf ~at:j.sojourn
    | Aborted -> 0.0
  in
  let loss = maxu -. accrued in
  let delay = j.sojourn - j.own in
  let share ns =
    if delay <= 0 || ns = 0 then 0.0
    else
      let u_own = Tuf.utility tuf ~at:j.own in
      (u_own -. accrued) *. float_of_int ns /. float_of_int delay
  in
  let u_retry = share j.retry in
  let u_blocked = share j.blocked in
  let u_preempted = share j.preempted in
  let u_sched = share j.sched in
  let u_abort = share j.abort_handler in
  let u_idle = share j.idle in
  let u_self =
    loss -. (u_retry +. u_blocked +. u_preempted +. u_sched +. u_abort
             +. u_idle)
  in
  ( maxu,
    accrued,
    { u_self; u_retry; u_blocked; u_preempted; u_sched; u_abort; u_idle } )

let of_trace ?tasks trace =
  let t0 = Unix.gettimeofday () in
  if Trace.dropped trace > 0 then
    Error
      (Printf.sprintf
         "attribution requires a complete trace: %d entr%s dropped by the \
          ring buffer (rerun without --trace-capacity, or raise it)"
         (Trace.dropped trace)
         (if Trace.dropped trace = 1 then "y was" else "ies were"))
  else begin
    let task_by_id = Hashtbl.create 16 in
    (match tasks with
    | None -> ()
    | Some ts ->
      List.iter (fun tk -> Hashtbl.replace task_by_id tk.Task.id tk) ts);
    (* Pre-pass: collect true arrivals so jobs can be admitted at their
       release time even when the [Arrive] entry was recorded later
       (scheduler-cost or abort-handler intervals straddle releases);
       note the first and the latest entry times. The trace is read in
       place, never copied. *)
    let task_of = Hashtbl.create 64 in
    let arrivals = ref [] in
    let first_time = ref None and last_time = ref 0 in
    Trace.iter
      (fun { Trace.time; kind } ->
        if Option.is_none !first_time then first_time := Some time;
        last_time := max !last_time time;
        match kind with
        | Trace.Arrive (jid, task, at) ->
          Hashtbl.replace task_of jid task;
          arrivals := (at, jid, task) :: !arrivals
        | _ -> ())
      trace;
    let last_time = !last_time in
    let arrivals =
      List.rev !arrivals
      |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)
      |> Array.of_list
    in
    let n_arrivals = Array.length arrivals in
    let next_arrival = ref 0 in
    let live = Hashtbl.create 64 in
    (* Without a discipline a [Block] vacates the core: a spin-waiter's
       wait counts as blocked, not as its own execution. *)
    let w = Trace.walk () in
    (* CPU-wide exclusive interval: scheduler cost or an abort handler,
       with its end time (and culprit, for handlers). *)
    let special = ref `None in
    let resolved = ref [] in
    let anomalies = ref 0 in
    let cur =
      ref
        (match (!first_time, n_arrivals) with
        | None, _ -> 0
        | Some t, 0 -> t
        | Some t, _ ->
          let (a, _, _) = arrivals.(0) in
          min t a)
    in
    let admit_due () =
      while
        !next_arrival < n_arrivals
        && (let (at, _, _) = arrivals.(!next_arrival) in
            at <= !cur)
      do
        let (at, jid, task) = arrivals.(!next_arrival) in
        incr next_arrival;
        Hashtbl.replace live jid
          { a_job = Trace.arrive w ~jid ~task ~at; a_own = 0; a_sched = 0;
            a_idle = 0; a_charges = Hashtbl.create 4 }
      done
    in
    let expire_special () =
      match !special with
      | (`Sched u | `Handler (u, _)) when u <= !cur -> special := `None
      | _ -> ()
    in
    let charge_interval len =
      (* The culprit for a ready job off every core: the lowest-core
         occupant, a deterministic stand-in for "the job that displaced
         me". *)
      let culprit =
        lazy (match Trace.occupants w with (_, r) :: _ -> Some r | [] -> None)
      in
      Hashtbl.iter
        (fun _ acc ->
          let j = acc.a_job in
          if j.waits_on >= 0 then
            add_charge acc Blocked ~by:(Trace.holder w ~obj:j.waits_on)
              ~obj:j.waits_on len
          else
            match !special with
            | `Sched _ -> acc.a_sched <- acc.a_sched + len
            | `Handler (_, ajid) ->
              add_charge acc Abort_handler ~by:ajid ~obj:(-1) len
            | `None ->
              if j.core >= 0 then acc.a_own <- acc.a_own + len
              else (
                match Lazy.force culprit with
                | Some r -> add_charge acc Preempted ~by:r ~obj:(-1) len
                | None -> acc.a_idle <- acc.a_idle + len))
        live
    in
    (* Distribute [!cur, t) across the live set, splitting at arrival
       admissions and special-interval expiries. *)
    let advance t =
      admit_due ();
      expire_special ();
      while !cur < t do
        let boundary = ref t in
        if !next_arrival < n_arrivals then begin
          let (at, _, _) = arrivals.(!next_arrival) in
          if at < !boundary then boundary := at
        end;
        (match !special with
        | `Sched u | `Handler (u, _) -> if u < !boundary then boundary := u
        | `None -> ());
        let len = !boundary - !cur in
        if len > 0 then charge_interval len;
        cur := !boundary;
        admit_due ();
        expire_special ()
      done
    in
    let finalize jid time outcome =
      match Hashtbl.find_opt live jid with
      | None -> ()
      | Some acc ->
        Hashtbl.remove live jid;
        let { Trace.task; arrival; _ } = acc.a_job in
        let sojourn = time - arrival in
        let j =
          {
            jid;
            task;
            arrival;
            resolved_at = time;
            outcome;
            sojourn;
            own = acc.a_own;
            retry = charge_sum acc Retry;
            blocked = charge_sum acc Blocked;
            preempted = charge_sum acc Preempted;
            sched = acc.a_sched;
            abort_handler = charge_sum acc Abort_handler;
            idle = acc.a_idle;
            charges = charge_list acc;
            max_utility = 0.0;
            accrued = 0.0;
            loss = None;
          }
        in
        let j =
          match Hashtbl.find_opt task_by_id task with
          | None -> j
          | Some tk ->
            let maxu, accrued, loss =
              decompose_loss ~tuf:tk.Task.tuf j
            in
            { j with max_utility = maxu; accrued; loss = Some loss }
        in
        resolved := j :: !resolved
    in
    Trace.iter
      (fun ({ Trace.time; kind } as e) ->
        (* Trace times are nondecreasing for simulator output; clamp
           defensively so hand-built traces cannot drive the cursor
           backwards. *)
        let time = max time !cur in
        advance time;
        (match kind with
        | Trace.Retry (jid, obj, by, lost) -> (
          (* The discarded attempt's CPU time moves from Own to the
             invalidator's Retry account — a transfer, so the
             conservation sum is untouched. *)
          match Hashtbl.find_opt live jid with
          | None -> ()
          | Some acc ->
            let amt = min lost acc.a_own in
            if amt < lost then incr anomalies;
            acc.a_own <- acc.a_own - amt;
            add_charge acc Retry ~by ~obj amt)
        | Trace.Complete jid -> finalize jid time Completed
        | Trace.Abort (jid, handler) ->
          finalize jid time Aborted;
          if handler > 0 then special := `Handler (time + handler, jid)
        | Trace.Sched (_, cost) ->
          if cost > 0 then special := `Sched (time + cost)
        | _ -> ());
        Trace.step w e)
      trace;
    Ok
      {
        jobs = List.rev !resolved;
        task_of;
        in_flight = Hashtbl.length live;
        events = Trace.length trace;
        last_time;
        elapsed_s = Unix.gettimeofday () -. t0;
        anomalies = !anomalies;
      }
  end

(* --- conservation check ---------------------------------------------- *)

let check t =
  let bad = Buffer.create 0 in
  List.iter
    (fun j ->
      let total = components_total j in
      if total <> j.sojourn then
        Buffer.add_string bad
          (Printf.sprintf
             "J%d (task %d): components sum to %dns but sojourn is %dns\n"
             j.jid j.task total j.sojourn);
      match j.loss with
      | None -> ()
      | Some l ->
        (* Float addition is not associative, so "components sum to
           loss" is pinned to one canonical grouping: the interference
           shares are summed left-to-right and [u_self] must be the
           exact IEEE difference [loss -. that sum] — the same
           expression that defined it, so equality is bitwise. *)
        let interference_sum =
          l.u_retry +. l.u_blocked +. l.u_preempted +. l.u_sched
          +. l.u_abort +. l.u_idle
        in
        let loss = j.max_utility -. j.accrued in
        if l.u_self <> loss -. interference_sum then
          Buffer.add_string bad
            (Printf.sprintf
               "J%d (task %d): u_self %.17g does not reconstruct loss \
                %.17g (interference shares sum to %.17g)\n"
               j.jid j.task l.u_self loss interference_sum))
    t.jobs;
  if Buffer.length bad = 0 then Ok ()
  else Error (String.trim (Buffer.contents bad))
