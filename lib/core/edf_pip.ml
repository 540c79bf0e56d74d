module Job = Rtlf_model.Job
module Lock_manager = Rtlf_model.Lock_manager

(* Jobs transitively blocked on [j] are those whose dependency chain
   contains [j]. Rather than inverting the wait-for graph, walk each
   blocked job's chain once; cost O(n · chain) per invocation, in line
   with PIP implementations that propagate on block/release events.
   [Lock_manager.dependency_chain] returns a fresh list, so a decide
   allocates one list per blocked live job and nothing else. *)
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

(* The schedule is the runnable jobs in (inherited critical time, jid)
   order. The charged [ops] is one per live job plus live² for the
   inheritance fold. *)
let make ~locks =
  Edf.keyed ~name:"edf-pip"
    ~key:(fun jobs j -> effective_critical_time ~locks ~jobs j)
    ~ops:(fun ~total:_ ~live -> live + (live * live))
