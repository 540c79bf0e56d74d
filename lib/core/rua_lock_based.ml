module Job = Rtlf_model.Job
module Lock_manager = Rtlf_model.Lock_manager

(* Flat-array hot path for the lock-based algorithm, differentially
   tested bit-identical to [Reference.rua_lock_based] (decisions and
   charged ops). Every live job is walked once into int arrays indexed
   by its live rank (its position among the live entries of [jobs]).
   Two paths share that walk and the decision write:

   - With a waiter in the lock table ([chained]), dependency chains are
     rank ranges in one shared buffer; the sort permutes ranks; the
     greedy loop probes the rank-indexed [Tentative_schedule] with
     journalled rollback instead of deep-copying it per candidate. A
     job that waits on nothing has the singleton chain and no cycle, so
     the lock manager is consulted only for waiters.
   - With no waiter ([unchained]), every chain is the job alone and
     nothing deadlocks, so the greedy loop admits single ranks into a
     flat schedule and charges in closed form what [chained] charges on
     singleton chains: 2 per job for step 1, 1 per job for step 3, and
     per candidate two [mem]s, one [insert_at_ecf] and one [feasible]
     walk.

   Both paths charge identical [ops]. The decision is written as
   positions into the instance's one record, so with no waiter a decide
   allocates nothing.

   The deadlock-victim table is a fresh [Hashtbl.create 4], built only
   once a cycle is found: it is folded to produce [aborts], and fold
   order over a Hashtbl depends on its allocation and insertion
   history, which must match the reference's table exactly. *)

type scratch = {
  sched : Tentative_schedule.t;
  mutable idx : int array; (* rank -> position in [jobs] *)
  mutable jid : int array; (* rank -> jid *)
  mutable rem : int array; (* rank -> remaining cost *)
  mutable act : int array; (* rank -> absolute critical time *)
  mutable victim : bool array; (* rank -> deadlock victim *)
  mutable pud : float array; (* rank -> PUD over its chain *)
  mutable chain_off : int array; (* rank -> its chain's start in [chains] *)
  mutable chain_len : int array; (* rank -> its chain's length *)
  mutable chains : int array; (* chain members as ranks, head first *)
  mutable order : int array; (* surviving ranks, examination order *)
  mutable ect : int array; (* position -> critical time, [unchained] *)
  probe : float array; (* one slot: the utility [chain_pud] adds next *)
  decision : Scheduler.decision; (* overwritten by every call *)
}

(* Append rank [r] at [chains.(c)], keeping the buffer's contents when
   it grows. Returns the new fill. *)
let push s c r =
  if c = Array.length s.chains then begin
    let grown = Array.make (Scratch.grow (c + 1) s.chains) 0 in
    Array.blit s.chains 0 grown 0 c;
    s.chains <- grown
  end;
  s.chains.(c) <- r;
  c + 1

(* The live rank of [jid], or -1 when the job is not live (just
   completed or aborted). Searching from the top finds the entry the
   reference's jid table would keep. *)
let rank_of s n jid =
  let r = ref (n - 1) in
  while !r >= 0 && s.jid.(!r) <> jid do
    decr r
  done;
  !r

(* Resolve a lock-manager jid chain to live ranks appended from [c],
   dropping members that are no longer live. Returns the new fill. *)
let rec push_resolved s n c = function
  | [] -> c
  | jid :: rest ->
    let r = rank_of s n jid in
    push_resolved s n (if r >= 0 then push s c r else c) rest

let live_count s n jids =
  List.fold_left (fun k jid -> if rank_of s n jid >= 0 then k + 1 else k) 0 jids

(* [Pud.of_chain] over the chain at [chains.(off) ..], in its exact
   summation order. Each utility goes through [s.probe]
   ([Job.utility_into]) and the quotient lands unboxed in the caller,
   so no float is boxed. *)
let[@inline] chain_pud s ~now ~jobs off len =
  let t = ref now and u = ref 0.0 in
  for k = off to off + len - 1 do
    let r = s.chains.(k) in
    t := !t + s.rem.(r);
    Job.utility_into jobs.(s.idx.(r)) ~now:!t s.probe 0;
    u := !u +. s.probe.(0)
  done;
  let span = !t - now in
  if span <= 0 then infinity else !u /. float_of_int span

(* The live rank of the cycle member with the least PUD (the first on
   ties), or -1 when no member is live. *)
let weakest s n ~now ~jobs ~remaining cycle =
  let best = ref (-1) and best_pud = ref 0.0 in
  List.iter
    (fun jid ->
      let r = rank_of s n jid in
      if r >= 0 then begin
        let p = Pud.of_job ~now ~remaining jobs.(s.idx.(r)) in
        if !best < 0 || p < !best_pud then begin
          best := r;
          best_pud := p
        end
      end)
    cycle;
  !best

let score s ~jobs ~remaining =
  let total = Array.length jobs in
  s.idx <- Scratch.ensure total s.idx;
  s.jid <- Scratch.ensure total s.jid;
  s.rem <- Scratch.ensure total s.rem;
  s.act <- Scratch.ensure total s.act;
  s.victim <- Scratch.ensure_bool total s.victim;
  s.pud <- Scratch.ensure_float total s.pud;
  s.chain_off <- Scratch.ensure total s.chain_off;
  s.chain_len <- Scratch.ensure total s.chain_len;
  s.chains <- Scratch.ensure total s.chains;
  s.order <- Scratch.ensure total s.order;
  s.ect <- Scratch.ensure total s.ect;
  let n = ref 0 in
  for i = 0 to total - 1 do
    let j = jobs.(i) in
    if Job.is_live j then begin
      let r = !n in
      s.idx.(r) <- i;
      s.jid.(r) <- j.Job.jid;
      s.rem.(r) <- remaining j;
      s.act.(r) <- Job.absolute_critical_time j;
      s.victim.(r) <- false;
      n := r + 1
    end
  done;
  Scheduler.set_schedule_capacity s.decision !n;
  !n

(* The decision from [d.schedule.(0 .. len - 1)], admitted ranks in
   schedule order, and [order.(0 .. nrej - 1)], rejected ranks. *)
let write s ~jobs ~len ~nrej ~aborts ~ops =
  let d = s.decision in
  for p = 0 to len - 1 do
    d.schedule.(p) <- s.idx.(d.schedule.(p))
  done;
  for k = 0 to nrej - 1 do
    d.rejected.(k) <- s.jid.(s.order.(k))
  done;
  d.jobs <- jobs;
  d.length <- len;
  d.n_rejected <- nrej;
  d.aborts <- aborts;
  d.ops <- ops;
  Scheduler.dispatch_first_runnable d;
  d

let chained s ~locks ~now ~jobs ~remaining n =
  let ops = ref 0 in
  (* Steps 1 and 2: dependency chains (head-first execution order) and
     deadlock detection, resolving each cycle by aborting its least-PUD
     member. Victims are recorded in rank order, as in the reference. *)
  let victims = ref None in
  let c = ref 0 in
  for r = 0 to n - 1 do
    let jid = s.jid.(r) in
    s.chain_off.(r) <- !c;
    (match Lock_manager.waiting_for locks ~jid with
    | None -> c := push s !c r
    | Some _ -> (
      c := push_resolved s n !c (Lock_manager.dependency_chain locks ~jid);
      match Lock_manager.find_cycle locks ~jid with
      | None -> ()
      | Some cycle ->
        let tbl =
          match !victims with
          | Some tbl -> tbl
          | None ->
            let tbl = Hashtbl.create 4 in
            victims := Some tbl;
            tbl
        in
        ops := !ops + live_count s n cycle;
        let v = weakest s n ~now ~jobs ~remaining cycle in
        if v >= 0 then begin
          s.victim.(v) <- true;
          let job = jobs.(s.idx.(v)) in
          Hashtbl.replace tbl job.Job.jid job
        end));
    s.chain_len.(r) <- !c - s.chain_off.(r);
    ops := !ops + s.chain_len.(r) + 1
  done;
  (* Step 3: PUD of each surviving job over its chain, victims filtered
     out of the chain in place. *)
  let any_victim = Option.is_some !victims in
  let m = ref 0 in
  for r = 0 to n - 1 do
    if not s.victim.(r) then begin
      let off = s.chain_off.(r) in
      let len =
        if not any_victim then s.chain_len.(r)
        else begin
          let k = ref off in
          for q = off to off + s.chain_len.(r) - 1 do
            if not s.victim.(s.chains.(q)) then begin
              s.chains.(!k) <- s.chains.(q);
              incr k
            end
          done;
          !k - off
        end
      in
      s.chain_len.(r) <- len;
      ops := !ops + len;
      s.pud.(r) <- chain_pud s ~now ~jobs off len;
      s.order.(!m) <- r;
      incr m
    end
  done;
  let m = !m in
  (* Step 4: sort by non-increasing PUD. *)
  Pud.sort ~pud:s.pud ~jid:s.jid s.order m;
  ops := !ops + (n * Log2.ceil (Int.max n 2));
  (* Step 5: greedy construction with aggregate insertion. *)
  let sched = s.sched in
  Tentative_schedule.reset sched ~now ~rem:s.rem ~act:s.act ~n;
  (* Rejected ranks are compacted into the examined prefix of [order]. *)
  let nrej = ref 0 in
  for k = 0 to m - 1 do
    let r = s.order.(k) in
    (* A job already scheduled as someone's dependent is skipped. *)
    if
      (not (Tentative_schedule.mem sched ~rank:r))
      && not
           (Tentative_schedule.try_insert_chain sched s.chains
              ~off:s.chain_off.(r) ~len:s.chain_len.(r))
    then begin
      s.order.(!nrej) <- r;
      incr nrej
    end
  done;
  let len = Tentative_schedule.length sched in
  for p = 0 to len - 1 do
    s.decision.schedule.(p) <- Tentative_schedule.rank_at sched p
  done;
  write s ~jobs ~len ~nrej:!nrej
    ~aborts:
      (match !victims with
      | None -> []
      | Some tbl -> Hashtbl.fold (fun _ job acc -> job :: acc) tbl [])
    ~ops:(!ops + Tentative_schedule.ops sched)

(* [chained] on singleton chains. The PUD is [chain_pud]'s over one
   job, bit for bit. The schedule holds ranks by position with their
   critical times in [ect], in ECF order: a candidate goes after every
   equal critical time, the k + 1 entries are walked for feasibility,
   and a rejected candidate is shifted back out. *)
let unchained s ~now ~jobs n =
  for r = 0 to n - 1 do
    let span = s.rem.(r) in
    Job.utility_into jobs.(s.idx.(r)) ~now:(now + span) s.probe 0;
    s.pud.(r) <-
      (if span <= 0 then infinity
       else (0.0 +. s.probe.(0)) /. float_of_int span);
    s.order.(r) <- r
  done;
  Pud.sort ~pud:s.pud ~jid:s.jid s.order n;
  let ops = ref ((3 * n) + (n * Log2.ceil (Int.max n 2))) in
  let sch = s.decision.schedule and ect = s.ect and rem = s.rem in
  let len = ref 0 and nrej = ref 0 in
  for k = 0 to n - 1 do
    let r = s.order.(k) and l = !len in
    let ct = s.act.(r) in
    ops := !ops + (3 * Log2.ceil (l + 1)) + l + 1;
    let i = ref l in
    while !i > 0 && ect.(!i - 1) > ct do
      sch.(!i) <- sch.(!i - 1);
      ect.(!i) <- ect.(!i - 1);
      decr i
    done;
    sch.(!i) <- r;
    ect.(!i) <- ct;
    let t = ref now and p = ref 0 in
    while !p <= l && !t + rem.(sch.(!p)) <= ect.(!p) do
      t := !t + rem.(sch.(!p));
      incr p
    done;
    if !p > l then len := l + 1
    else begin
      for q = !i to l - 1 do
        sch.(q) <- sch.(q + 1);
        ect.(q) <- ect.(q + 1)
      done;
      s.order.(!nrej) <- r;
      incr nrej
    end
  done;
  write s ~jobs ~len:!len ~nrej:!nrej ~aborts:[] ~ops:!ops

let decide s ~locks ~now ~jobs ~remaining =
  let n = score s ~jobs ~remaining in
  if Lock_manager.any_waiting locks then
    chained s ~locks ~now ~jobs ~remaining n
  else unchained s ~now ~jobs n

let make ~locks =
  let s =
    {
      sched = Tentative_schedule.create ();
      idx = [||];
      jid = [||];
      rem = [||];
      act = [||];
      victim = [||];
      pud = [||];
      chain_off = [||];
      chain_len = [||];
      chains = [||];
      order = [||];
      ect = [||];
      probe = [| 0.0 |];
      decision = Scheduler.create_decision ();
    }
  in
  {
    Scheduler.name = "rua-lock-based";
    decide =
      (fun ~now ~jobs ~remaining -> decide s ~locks ~now ~jobs ~remaining);
  }
