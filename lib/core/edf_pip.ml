module Job = Rtlf_model.Job
module Lock_manager = Rtlf_model.Lock_manager

(* Jobs transitively blocked on [j] are those whose dependency chain
   contains [j]. Rather than inverting the wait-for graph, walk each
   blocked job's chain; cost O(n · chain) per job. This per-job fold is
   the specification the one-pass [lower_keys] below must match. *)
let effective_critical_time ~locks ~jobs job =
  let own = ref (Job.absolute_critical_time job) in
  for i = 0 to Array.length jobs - 1 do
    let blocked = jobs.(i) in
    if blocked.Job.jid <> job.Job.jid && Job.is_live blocked then
      match blocked.Job.state with
      | Job.Blocked _ ->
        let chain = Lock_manager.dependency_chain locks ~jid:blocked.Job.jid in
        if List.mem job.Job.jid chain then
          own := Int.min !own (Job.absolute_critical_time blocked)
      | Job.Ready | Job.Running | Job.Completed | Job.Aborted -> ()
  done;
  !own

(* Lower to [ct] the key of every runnable position whose jid is on
   [chain]. Positions are found by scanning [jobs], which need not be
   sorted by jid. *)
let rec lower_chain jobs key ct = function
  | [] -> ()
  | jid :: rest ->
    for i = 0 to Array.length jobs - 1 do
      let j = jobs.(i) in
      if j.Job.jid = jid && Job.is_runnable j && ct < key.(i) then
        key.(i) <- ct
    done;
    lower_chain jobs key ct rest

(* The inheritance fold in one pass: each blocked live job's chain is
   built once ([Lock_manager.dependency_chain] returns a fresh list, so
   a decide allocates one list per blocked job and nothing else) and
   lowers its members' keys to the blocked job's critical time. The
   blocked job itself is on its chain but not runnable, so it is never
   lowered, as in [effective_critical_time]. *)
let lower_keys ~locks jobs key =
  for i = 0 to Array.length jobs - 1 do
    let blocked = jobs.(i) in
    match blocked.Job.state with
    | Job.Blocked _ ->
      lower_chain jobs key
        (Job.absolute_critical_time blocked)
        (Lock_manager.dependency_chain locks ~jid:blocked.Job.jid)
    | Job.Ready | Job.Running | Job.Completed | Job.Aborted -> ()
  done

(* The schedule is the runnable jobs in (inherited critical time, jid)
   order. The charged [ops] is one per live job plus live² for the
   inheritance fold. *)
let make ~locks =
  Edf.keyed ~name:"edf-pip" ~lower:(lower_keys ~locks)
    ~ops:(fun ~total:_ ~live -> live + (live * live))
