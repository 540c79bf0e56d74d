module Job = Rtlf_model.Job
module Lock_manager = Rtlf_model.Lock_manager

(* Arena-backed EDF with priority inheritance. The scratch cells and
   in-place sort remove the per-invocation list and tuple churn, and
   the decision path folds effective critical times straight over the
   jobs array instead of through a per-call hash table. Differentially
   tested bit-identical to [Reference.edf_pip]. *)

type scratch = { arena : Arena.t }

let by_ect (a : Arena.cell) (b : Arena.cell) =
  match Float.compare a.Arena.key b.Arena.key with
  | 0 -> Int.compare a.Arena.jid b.Arena.jid
  | c -> c

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
            own := min !own (Job.absolute_critical_time blocked)
        | Job.Ready | Job.Running | Job.Completed | Job.Aborted -> ())
    jobs;
  !own

let decide scratch ~locks ~now:_ ~jobs ~remaining:_ =
  let live = ref 0 in
  Array.iter (fun j -> if Job.is_live j then incr live) jobs;
  let live = !live in
  let ops = ref 0 in
  let cells = Arena.cells scratch.arena ~n:live in
  let n = ref 0 in
  Array.iter
    (fun j ->
      if Job.is_live j then begin
        ops := !ops + 1;
        if Job.is_runnable j then begin
          let c = cells.(!n) in
          c.Arena.key <- float_of_int (effective_critical_time ~locks ~jobs j);
          c.Arena.jid <- j.Job.jid;
          c.Arena.job <- j;
          incr n
        end
      end)
    jobs;
  let n = !n in
  Arena.sort cells ~n ~cmp:by_ect;
  let schedule = List.init n (fun i -> cells.(i).Arena.job) in
  ops := !ops + (live * live);
  let dispatch = match schedule with [] -> None | j :: _ -> Some j in
  Arena.scrub cells ~n;
  {
    Scheduler.dispatch;
    aborts = [];
    rejected = [];
    schedule;
    ops = !ops;
  }

let make ~locks =
  let scratch = { arena = Arena.create () } in
  {
    Scheduler.name = "edf-pip";
    decide =
      (fun ~now ~jobs ~remaining -> decide scratch ~locks ~now ~jobs ~remaining);
  }
