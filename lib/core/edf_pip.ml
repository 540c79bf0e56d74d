module Job = Rtlf_model.Job
module Lock_manager = Rtlf_model.Lock_manager

(* Jobs transitively blocked on [j] are those whose dependency chain
   contains [j]. Rather than inverting the wait-for graph, walk each
   blocked job's chain once; cost O(n · chain) per invocation, in line
   with PIP implementations that propagate on block/release events. *)
let effective_critical_time ~locks ~jobs job =
  let own = ref (Job.absolute_critical_time job) in
  Array.iter
    (fun blocked ->
      if blocked.Job.jid <> job.Job.jid && Job.is_live blocked then
        match blocked.Job.state with
        | Job.Blocked _ ->
          let chain =
            Lock_manager.dependency_chain locks ~jid:blocked.Job.jid
          in
          if List.mem job.Job.jid chain then
            own := Int.min !own (Job.absolute_critical_time blocked)
        | Job.Ready | Job.Running | Job.Completed | Job.Aborted -> ())
    jobs;
  !own

let by_ect ((ka : int), a) (kb, b) =
  if ka <> kb then Int.compare ka kb else Int.compare a.Job.jid b.Job.jid

(* The charged [ops] is one per live job plus live² for the
   inheritance fold. *)
let decide ~locks ~now:_ ~jobs ~remaining:_ =
  let live = ref 0 and keyed = ref [] in
  Array.iter
    (fun j ->
      if Job.is_live j then begin
        incr live;
        if Job.is_runnable j then
          keyed := (effective_critical_time ~locks ~jobs j, j) :: !keyed
      end)
    jobs;
  let schedule = List.map snd (List.sort by_ect !keyed) in
  {
    Scheduler.dispatch = (match schedule with [] -> None | j :: _ -> Some j);
    aborts = [];
    rejected = [];
    schedule;
    ops = !live + (!live * !live);
  }

let make ~locks = { Scheduler.name = "edf-pip"; decide = decide ~locks }
