(* The original list-based RUA decision procedures, retained verbatim
   as the differential-testing oracle. [Rua_lock_free] (slack tree) and
   [Rua_lock_based] (rank-indexed arrays, rollback journal) must produce
   bit-identical decisions — dispatch, aborts, rejected, schedule
   order and the charged [ops] count — on every input; the paper's
   reproduced numbers depend only on that contract, never on the
   physical layout of the hot path. Only the entry points were adapted
   to the array-based [Scheduler.decide] signature: one [Array.to_list]
   at the boundary, and a fresh record from [Scheduler.of_lists] on the
   way out. EDF and EDF+PIP have no twin: their one list-based
   implementation is checked against its specification instead. *)

module Job = Rtlf_model.Job
module Lock_manager = Rtlf_model.Lock_manager

(* The original list-backed tentative schedule (ECF order, §3.4,
   §3.4.1), including the deep [copy] per greedy candidate that the
   rank-indexed [Tentative_schedule] replaces with in-place rollback. *)
module List_schedule = struct
  type entry = { job : Job.t; mutable eff_ct : int }

  type t = {
    ops : int ref;
    now : int;
    remaining : Job.t -> int;
    mutable entries : entry list; (* ECF order *)
  }

  let create ~ops ~now ~remaining = { ops; now; remaining; entries = [] }

  let copy sched =
    {
      sched with
      entries =
        List.map (fun e -> { job = e.job; eff_ct = e.eff_ct }) sched.entries;
    }

  let length sched = List.length sched.entries

  let charge_ordered_op sched =
    sched.ops := !(sched.ops) + Log2.ceil (length sched + 1)

  let mem sched ~jid =
    charge_ordered_op sched;
    List.exists (fun e -> e.job.Job.jid = jid) sched.entries

  let jobs sched = List.map (fun e -> e.job) sched.entries

  let index_of sched ~jid =
    let rec go i = function
      | [] -> None
      | e :: rest -> if e.job.Job.jid = jid then Some i else go (i + 1) rest
    in
    go 0 sched.entries

  let insert_at_ecf sched entry ~cap =
    charge_ordered_op sched;
    let rec go i acc = function
      | [] -> List.rev (entry :: acc)
      | e :: rest ->
        if i >= cap || e.eff_ct > entry.eff_ct then
          List.rev_append acc (entry :: e :: rest)
        else go (i + 1) (e :: acc) rest
    in
    sched.entries <- go 0 [] sched.entries

  let remove sched ~jid =
    charge_ordered_op sched;
    sched.entries <-
      List.filter (fun e -> e.job.Job.jid <> jid) sched.entries

  let insert_job sched job =
    if not (mem sched ~jid:job.Job.jid) then begin
      let entry = { job; eff_ct = Job.absolute_critical_time job } in
      insert_at_ecf sched entry ~cap:max_int
    end

  let find_entry sched ~jid =
    List.find_opt (fun e -> e.job.Job.jid = jid) sched.entries

  let insert_chain sched chain =
    let rec go succ_jid = function
      | [] -> ()
      | job :: earlier ->
        let jid = job.Job.jid in
        (match succ_jid with
        | None ->
          if not (mem sched ~jid) then begin
            let entry = { job; eff_ct = Job.absolute_critical_time job } in
            insert_at_ecf sched entry ~cap:max_int
          end
        | Some sj -> (
          let succ_pos =
            match index_of sched ~jid:sj with
            | Some p -> p
            | None -> invalid_arg "Reference.List_schedule.insert_chain: broken"
          in
          let succ_ct =
            match find_entry sched ~jid:sj with
            | Some e -> e.eff_ct
            | None -> assert false
          in
          match index_of sched ~jid with
          | Some p when p < succ_pos -> charge_ordered_op sched
          | Some _ ->
            remove sched ~jid;
            let succ_pos' =
              match index_of sched ~jid:sj with
              | Some p -> p
              | None -> assert false
            in
            let entry = { job; eff_ct = succ_ct } in
            insert_at_ecf sched entry ~cap:succ_pos'
          | None ->
            let abs_ct = Job.absolute_critical_time job in
            let eff_ct = min abs_ct succ_ct in
            let entry = { job; eff_ct } in
            insert_at_ecf sched entry ~cap:succ_pos));
        go (Some jid) earlier
    in
    go None (List.rev chain)

  let feasible sched =
    sched.ops := !(sched.ops) + length sched;
    let rec go time = function
      | [] -> true
      | e :: rest ->
        let time = time + sched.remaining e.job in
        time <= e.eff_ct && go time rest
    in
    go sched.now sched.entries
end

(* --- lock-free RUA ---------------------------------------------------- *)

let rua_lock_free_decide ~now ~jobs:jobs_arr ~remaining =
  let jobs = Array.to_list jobs_arr in
  let ops = ref 0 in
  let live = List.filter Job.is_live jobs in
  let n = List.length live in
  let scored = List.map (fun j -> (Pud.of_job ~now ~remaining j, j)) live in
  ops := !ops + n;
  let by_pud (pa, ja) (pb, jb) =
    match compare pb pa with 0 -> compare ja.Job.jid jb.Job.jid | c -> c
  in
  let sorted = List.sort by_pud scored in
  ops := !ops + (n * Log2.ceil (max n 2));
  let sched = List_schedule.create ~ops ~now ~remaining in
  let final, rejected =
    List.fold_left
      (fun (sched, rejected) (_, job) ->
        let tentative = List_schedule.copy sched in
        List_schedule.insert_job tentative job;
        if List_schedule.feasible tentative then (tentative, rejected)
        else (sched, job.Job.jid :: rejected))
      (sched, []) sorted
  in
  Scheduler.of_lists ~jobs:jobs_arr ~aborts:[] ~rejected:(List.rev rejected)
    ~schedule:(List_schedule.jobs final) ~ops:!ops

let rua_lock_free () =
  { Scheduler.name = "rua-lock-free"; decide = rua_lock_free_decide }

(* --- lock-based RUA --------------------------------------------------- *)

let resolve_chain by_jid jids =
  List.filter_map (fun jid -> Hashtbl.find_opt by_jid jid) jids

let rua_lock_based_decide ~locks ~now ~jobs:jobs_arr ~remaining =
  let jobs = Array.to_list jobs_arr in
  let ops = ref 0 in
  let live = List.filter Job.is_live jobs in
  let n = List.length live in
  let by_jid = Hashtbl.create (max n 1) in
  List.iter (fun j -> Hashtbl.replace by_jid j.Job.jid j) live;
  let chains =
    List.map
      (fun j ->
        let chain_jids = Lock_manager.dependency_chain locks ~jid:j.Job.jid in
        let chain = resolve_chain by_jid chain_jids in
        ops := !ops + List.length chain;
        (j, chain))
      live
  in
  let victims = Hashtbl.create 4 in
  List.iter
    (fun j ->
      ops := !ops + 1;
      match Lock_manager.find_cycle locks ~jid:j.Job.jid with
      | None -> ()
      | Some cycle_jids ->
        let cycle = resolve_chain by_jid cycle_jids in
        ops := !ops + List.length cycle;
        let weakest =
          List.fold_left
            (fun acc job ->
              let pud = Pud.of_job ~now ~remaining job in
              match acc with
              | None -> Some (pud, job)
              | Some (best, _) when pud < best -> Some (pud, job)
              | Some _ -> acc)
            None cycle
        in
        (match weakest with
        | Some (_, job) -> Hashtbl.replace victims job.Job.jid job
        | None -> ()))
    live;
  let is_victim j = Hashtbl.mem victims j.Job.jid in
  let scored =
    List.filter_map
      (fun (j, chain) ->
        if is_victim j then None
        else begin
          let chain = List.filter (fun c -> not (is_victim c)) chain in
          ops := !ops + List.length chain;
          Some (Pud.of_chain ~now ~remaining chain, j, chain)
        end)
      chains
  in
  let by_pud (pa, ja, _) (pb, jb, _) =
    match compare pb pa with 0 -> compare ja.Job.jid jb.Job.jid | c -> c
  in
  let sorted = List.sort by_pud scored in
  ops := !ops + (n * Log2.ceil (max n 2));
  let sched = List_schedule.create ~ops ~now ~remaining in
  let final, rejected =
    List.fold_left
      (fun (sched, rejected) (_, job, chain) ->
        if List_schedule.mem sched ~jid:job.Job.jid then (sched, rejected)
        else begin
          let tentative = List_schedule.copy sched in
          List_schedule.insert_chain tentative chain;
          if List_schedule.feasible tentative then (tentative, rejected)
          else (sched, job.Job.jid :: rejected)
        end)
      (sched, []) sorted
  in
  let aborts = Hashtbl.fold (fun _ job acc -> job :: acc) victims [] in
  Scheduler.of_lists ~jobs:jobs_arr ~aborts ~rejected:(List.rev rejected)
    ~schedule:(List_schedule.jobs final) ~ops:!ops

let rua_lock_based ~locks =
  {
    Scheduler.name = "rua-lock-based";
    decide =
      (fun ~now ~jobs ~remaining ->
        rua_lock_based_decide ~locks ~now ~jobs ~remaining);
  }
