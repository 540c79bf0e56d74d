module Job = Rtlf_model.Job

(* Incremental, scale-ready decider. Three layers on top of the
   abstract algorithm (which is unchanged — [Reference.rua_lock_free]
   remains the oracle, and the differential suite pins decisions AND
   charged ops bit-identical):

   1. Within one invocation, the greedy admission loop runs in
      O(n log n) instead of O(n²). Candidates are laid out once in the
      final schedule's total order — (eff_ct, admission rank): ECF with
      ties resolved by admission order, exactly the order the
      reference's stable ECF insertion produces — so admitting a
      candidate never shifts anything physically, and both feasibility
      conditions become one slack-tree probe ({!Slack_tree}).

   2. Across invocations, a validity cache skips the rebuild entirely
      when no job's feasibility inputs changed. The decision is a pure
      function of (candidate order, per-candidate (eff_ct, rem), now);
      re-scoring is O(1) per job, and monotonicity makes the cached
      decision exact for any [now' >= now] up to the schedule's minimum
      slack: admitted entries keep non-negative slack (their slacks
      only dominate the intermediate states the greedy saw), and a
      candidate rejected at [now] fails the same comparison at any
      later instant. Any detected change — array identity, liveness,
      runnability, remaining cost, or PUD — falls back to the full
      rebuild.

   3. A rebuild that the cache cannot skip starts both sorts from the
      previous rebuild's orders. Between two rebuilds the live set
      changes by a job or so, and under step TUFs only the running
      job's PUD moves, so the old admission order and the old ECF
      layout are almost the new ones. The two jid-sorted arrays are
      matched in one merge walk; survivors are seeded in their old
      order, new jobs after them, and a budgeted insertion pass
      (about 4n moves) finishes each sort, handing over to the
      heapsort if the budget runs out. Both orders are total —
      (PUD, jid) and (eff_ct, rank) — so the sorted permutation, and
      with it the decision, is the same whatever the seed: a poor seed
      (an unsorted array, a disjoint live set) costs time, never a
      different result. Rebuilds of fewer than [warm_min] live jobs
      sort cold and record nothing.

   The rebuild works on flat arrays indexed by a job's position in
   [jobs]: each live job's remaining cost is read once (an O(1) lookup
   in the simulator's per-run suffix-cost table), its PUD is stored
   unboxed, both sorts permute ints, and the decision is written as
   positions into the instance's one decision record. A warm decide
   allocates nothing. The only job pointer held across calls is the
   decision's [jobs] array.

   The abstract ops charges are the paper's complexity model, not a
   measure of this implementation: every layer charges exactly what
   the reference list walk would have charged (per candidate probed
   with k entries admitted: two ordered-structure charges of
   ceil-log2(k+1) plus a feasibility walk of k+1; plus the n scoring
   and n*ceil-log2(n) sort charges), whatever the sorts actually did. *)

(* Last decision plus everything needed to prove it still holds. The
   per-index arrays shadow the jobs array the decision was made from,
   [decision.jobs] (identity-checked — the Live_view cache hands the
   scheduler the same physical array while membership is unchanged). *)
type cache = {
  mutable valid : bool;
  mutable prev_now : int;
  mutable min_slack : int; (* cached decision exact while now <= this *)
  mutable live : bool array;
  mutable runnable : bool array;
  mutable pud : float array;
  mutable rem : int array;
  probe : float array; (* one slot: a job's PUD now, to compare *)
  decision : Scheduler.decision;
}

type scratch = {
  tree : Slack_tree.t;
  mutable jid : int array; (* job index -> jid *)
  mutable by_rank : int array; (* admission rank -> job index *)
  mutable rem_of_rank : int array; (* admission rank -> remaining cost *)
  mutable ect_of_rank : int array; (* admission rank -> eff_ct *)
  mutable by_pos : int array; (* schedule position -> admission rank *)
  mutable pos_of_rank : int array; (* admission rank -> schedule position *)
  mutable admitted : bool array; (* schedule position -> admitted? *)
  (* The warm start: the last rebuild's two orders over its [prev_n]
     live jobs (0 when it recorded none), and the buffers that carry
     them into the next one. *)
  mutable prev_n : int;
  mutable prev_rank : int array; (* last admission rank -> job index *)
  mutable prev_pos : int array; (* last schedule position -> rank *)
  mutable new_of_old : int array; (* last job index -> index in jobs or -1 *)
  mutable seed : int array; (* spare buffer the admission seed is built in *)
  mutable mark : int array; (* job index -> [stamp] if seeded as survivor *)
  mutable stamp : int;
  mutable rank_of : int array; (* job index -> admission rank *)
  cache : cache;
}

(* [Pud.of_job]'s arithmetic on an already-read remaining cost, into
   [dst.(i)]. The utility is stored there first ([Job.utility_into]),
   so no float crosses a call boxed. *)
let[@inline] store_pud ~now job rem (dst : float array) i =
  let finish = now + rem in
  let span = finish - now in
  if span <= 0 then dst.(i) <- infinity
  else begin
    Job.utility_into job ~now:finish dst i;
    dst.(i) <- dst.(i) /. float_of_int span
  end

(* --- index sorts -------------------------------------------------------- *)

(* Admission order over job indices is [Pud.sort]'s. Schedule-position
   order over admission ranks is a second in-place int heapsort with
   its comparison inlined: eff_ct ascending, ties by rank — the
   stable-ECF insertion order of the reference schedule. *)
let[@inline] ecf_after (ect : int array) a b =
  let ea = ect.(a) and eb = ect.(b) in
  ea > eb || (ea = eb && a > b)

let rec sift_ecf ect perm i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let big = if ecf_after ect perm.(l) perm.(i) then l else i in
    let r = l + 1 in
    let big = if r < len && ecf_after ect perm.(r) perm.(big) then r else big in
    if big <> i then begin
      let t = perm.(i) in
      perm.(i) <- perm.(big);
      perm.(big) <- t;
      sift_ecf ect perm big len
    end
  end

let sort_ecf ~ect perm n =
  for i = (n / 2) - 1 downto 0 do
    sift_ecf ect perm i n
  done;
  for len = n - 1 downto 1 do
    let t = perm.(0) in
    perm.(0) <- perm.(len);
    perm.(len) <- t;
    sift_ecf ect perm 0 len
  done

(* Budgeted insertion sorts for a warm seed: linear on a nearly sorted
   prefix. Each stops before its next insertion once more than 4n
   entries have moved, and the heapsort sorts what is left; [true] iff
   the insertion pass alone finished. *)
let resort_pud ~pud ~jid perm n =
  let budget = ref (4 * n) and i = ref 1 in
  while !i < n && !budget >= 0 do
    let x = perm.(!i) in
    let j = ref (!i - 1) in
    while !j >= 0 && Pud.after pud jid perm.(!j) x do
      perm.(!j + 1) <- perm.(!j);
      decr j
    done;
    perm.(!j + 1) <- x;
    budget := !budget - (!i - 1 - !j);
    incr i
  done;
  !i >= n
  || begin
    Pud.sort ~pud ~jid perm n;
    false
  end

let resort_ecf ~ect perm n =
  let budget = ref (4 * n) and i = ref 1 in
  while !i < n && !budget >= 0 do
    let x = perm.(!i) in
    let j = ref (!i - 1) in
    while !j >= 0 && ecf_after ect perm.(!j) x do
      perm.(!j + 1) <- perm.(!j);
      decr j
    done;
    perm.(!j + 1) <- x;
    budget := !budget - (!i - 1 - !j);
    incr i
  done;
  !i >= n
  || begin
    sort_ecf ~ect perm n;
    false
  end

(* --- cached fast path -------------------------------------------------- *)

(* O(n) revalidation: the cached decision is returned verbatim iff no
   job's feasibility inputs changed and [now] has not passed the
   schedule's minimum slack. PUD is recomputed at the current [now] and
   compared bitwise — a step TUF's PUD is constant over the job's
   feasible window, so steady states validate; any drift rebuilds. *)
let cache_hit c ~now ~jobs ~remaining =
  c.valid
  && jobs == c.decision.Scheduler.jobs
  && now >= c.prev_now && now <= c.min_slack
  &&
  let n = Array.length jobs in
  let i = ref 0 in
  while
    !i < n
    &&
    let j = jobs.(!i) in
    let live = Job.is_live j in
    live = c.live.(!i)
    && ((not live)
       || Job.is_runnable j = c.runnable.(!i)
          &&
          let rem = remaining j in
          rem = c.rem.(!i)
          && begin
            store_pud ~now j rem c.probe 0;
            Float.compare c.probe.(0) c.pud.(!i) = 0
          end)
  do
    incr i
  done;
  !i >= n

(* --- warm start -------------------------------------------------------- *)

(* Rebuilds of fewer live jobs sort cold and record nothing: at two or
   three jobs the bookkeeping would cost more than the sorts. *)
let warm_min = 8

(* [s.new_of_old]: each job index of the last rebuild's array [prev]
   mapped to the same jid's index in [jobs], or -1. One merge walk over
   the two jid-sorted arrays; on an unsorted array it misses some
   survivors, which are then seeded as new jobs. *)
let match_previous s ~prev ~jobs =
  let old = Array.length prev and total = Array.length jobs in
  s.new_of_old <- Scratch.ensure old s.new_of_old;
  let map = s.new_of_old in
  if prev == jobs then
    for k = 0 to old - 1 do
      map.(k) <- k
    done
  else begin
    let i = ref 0 in
    for k = 0 to old - 1 do
      let jid = prev.(k).Job.jid in
      while !i < total && jobs.(!i).Job.jid < jid do
        incr i
      done;
      if !i < total && jobs.(!i).Job.jid = jid then begin
        map.(k) <- !i;
        incr i
      end
      else map.(k) <- -1
    done
  end

(* Turns [s.by_rank] — the live indices in index order, from [score] —
   into the admission seed: the live survivors in their last admission
   order, marked with this rebuild's stamp, then every other live job
   in index order. *)
let seed_ranks s ~total ~n =
  let live = s.cache.live and map = s.new_of_old in
  s.stamp <- s.stamp + 1;
  s.mark <- Scratch.ensure total s.mark;
  s.seed <- Scratch.ensure total s.seed;
  let stamp = s.stamp and mark = s.mark and seed = s.seed in
  let m = ref 0 in
  for r = 0 to s.prev_n - 1 do
    let i = map.(s.prev_rank.(r)) in
    if i >= 0 && live.(i) then begin
      seed.(!m) <- i;
      mark.(i) <- stamp;
      incr m
    end
  done;
  for t = 0 to n - 1 do
    let i = s.by_rank.(t) in
    if mark.(i) <> stamp then begin
      seed.(!m) <- i;
      incr m
    end
  done;
  s.seed <- s.by_rank;
  s.by_rank <- seed

(* Fills [s.by_pos] with the schedule-position seed over this rebuild's
   admission ranks: the marked survivors in their last ECF order, then
   every other rank in rank order. *)
let seed_positions s ~total ~n =
  s.rank_of <- Scratch.ensure total s.rank_of;
  let rank_of = s.rank_of and mark = s.mark and stamp = s.stamp in
  for r = 0 to n - 1 do
    rank_of.(s.by_rank.(r)) <- r
  done;
  let m = ref 0 in
  for p = 0 to s.prev_n - 1 do
    let i = s.new_of_old.(s.prev_rank.(s.prev_pos.(p))) in
    if i >= 0 && mark.(i) = stamp then begin
      s.by_pos.(!m) <- rank_of.(i);
      incr m
    end
  done;
  for r = 0 to n - 1 do
    if mark.(s.by_rank.(r)) <> stamp then begin
      s.by_pos.(!m) <- r;
      incr m
    end
  done

(* Keeps this rebuild's orders for the next one by swapping buffers. *)
let record s ~n =
  if n >= warm_min then begin
    let t = s.prev_rank in
    s.prev_rank <- s.by_rank;
    s.by_rank <- t;
    let t = s.prev_pos in
    s.prev_pos <- s.by_pos;
    s.by_pos <- t;
    s.prev_n <- n
  end
  else s.prev_n <- 0

(* --- full rebuild ------------------------------------------------------ *)

(* Scores every live job into the cache arrays (which then describe this
   decision's inputs) and lists the live indices in [s.by_rank].
   Returns the live count. *)
let score s ~now ~jobs ~remaining =
  let c = s.cache in
  let total = Array.length jobs in
  c.live <- Scratch.ensure_bool total c.live;
  c.runnable <- Scratch.ensure_bool total c.runnable;
  c.pud <- Scratch.ensure_float total c.pud;
  c.rem <- Scratch.ensure total c.rem;
  s.jid <- Scratch.ensure total s.jid;
  s.by_rank <- Scratch.ensure total s.by_rank;
  let n = ref 0 in
  for i = 0 to total - 1 do
    let j = jobs.(i) in
    let live = Job.is_live j in
    c.live.(i) <- live;
    if live then begin
      let rem = remaining j in
      c.runnable.(i) <- Job.is_runnable j;
      c.rem.(i) <- rem;
      store_pud ~now j rem c.pud i;
      s.jid.(i) <- j.Job.jid;
      s.by_rank.(!n) <- i;
      incr n
    end
  done;
  !n

let rebuild s ~now ~jobs ~remaining =
  let c = s.cache in
  c.valid <- false;
  let n = score s ~now ~jobs ~remaining in
  let ops = ref n in
  let total = Array.length jobs in
  let warm = s.prev_n > 0 && n >= warm_min in
  if warm then begin
    match_previous s ~prev:c.decision.Scheduler.jobs ~jobs;
    seed_ranks s ~total ~n;
    ignore (resort_pud ~pud:c.pud ~jid:s.jid s.by_rank n)
  end
  else Pud.sort ~pud:c.pud ~jid:s.jid s.by_rank n;
  ops := !ops + (n * Log2.ceil (Int.max n 2));
  (* Fixed schedule positions: candidates ordered by (eff_ct,
     admission rank). The admitted subset read in position order is
     exactly the reference's stable-ECF schedule. *)
  s.rem_of_rank <- Scratch.ensure n s.rem_of_rank;
  s.ect_of_rank <- Scratch.ensure n s.ect_of_rank;
  s.by_pos <- Scratch.ensure n s.by_pos;
  s.pos_of_rank <- Scratch.ensure n s.pos_of_rank;
  s.admitted <- Scratch.ensure_bool n s.admitted;
  for r = 0 to n - 1 do
    let i = s.by_rank.(r) in
    s.rem_of_rank.(r) <- c.rem.(i);
    s.ect_of_rank.(r) <- Job.absolute_critical_time jobs.(i);
    s.by_pos.(r) <- r
  done;
  if warm then begin
    seed_positions s ~total ~n;
    ignore (resort_ecf ~ect:s.ect_of_rank s.by_pos n)
  end
  else sort_ecf ~ect:s.ect_of_rank s.by_pos n;
  for p = 0 to n - 1 do
    s.pos_of_rank.(s.by_pos.(p)) <- p;
    s.admitted.(p) <- false
  done;
  let tree = s.tree in
  Slack_tree.reset tree ~n;
  (* Greedy admission, highest PUD first. Feasibility of candidate c
     at position p, against the admitted set S (all currently
     feasible): c itself must finish by its eff_ct after the admitted
     work before it, and every admitted entry after p must absorb
     rem c without going negative. Charges mirror the reference list
     walk exactly (see module comment). *)
  let admitted_count = ref 0 in
  (* [Log2.ceil (k + 1)], stepped as k grows: [lg_cap] is [2^lg]. *)
  let lg = ref 1 and lg_cap = ref 2 in
  for r = 0 to n - 1 do
    let k = !admitted_count in
    ops := !ops + (2 * !lg) + (k + 1);
    let p = s.pos_of_rank.(r) in
    let rem = s.rem_of_rank.(r) in
    let ect = s.ect_of_rank.(r) in
    Slack_tree.probe tree ~pos:p;
    let before = Slack_tree.before tree in
    let slack = ect - before - rem - now in
    if slack >= 0 && Slack_tree.after tree >= now + rem then begin
      Slack_tree.admit tree ~pos:p ~rem ~slack:(ect - before - rem);
      s.admitted.(p) <- true;
      admitted_count := k + 1;
      if k + 2 > !lg_cap then begin
        incr lg;
        lg_cap := 2 * !lg_cap
      end
    end
  done;
  let d = c.decision in
  Scheduler.set_schedule_capacity d n;
  let len = ref 0 in
  for p = 0 to n - 1 do
    if s.admitted.(p) then begin
      d.schedule.(!len) <- s.by_rank.(s.by_pos.(p));
      incr len
    end
  done;
  let nrej = ref 0 in
  for r = 0 to n - 1 do
    if not s.admitted.(s.pos_of_rank.(r)) then begin
      d.rejected.(!nrej) <- s.jid.(s.by_rank.(r));
      incr nrej
    end
  done;
  d.jobs <- jobs;
  d.length <- !len;
  d.n_rejected <- !nrej;
  d.ops <- !ops;
  Scheduler.dispatch_first_runnable d;
  (* The decision stays valid while now <= min over admitted of
     (eff_ct_i - prefix_rem_i): every admitted entry still feasible,
     every rejection still forced. *)
  c.min_slack <- Slack_tree.min_all tree;
  record s ~n;
  c.prev_now <- now;
  c.valid <- true;
  d

let decide s ~now ~jobs ~remaining =
  if cache_hit s.cache ~now ~jobs ~remaining then s.cache.decision
  else rebuild s ~now ~jobs ~remaining

let make () =
  let s =
    {
      tree = Slack_tree.create ();
      jid = [||];
      by_rank = [||];
      rem_of_rank = [||];
      ect_of_rank = [||];
      by_pos = [||];
      pos_of_rank = [||];
      admitted = [||];
      prev_n = 0;
      prev_rank = [||];
      prev_pos = [||];
      new_of_old = [||];
      seed = [||];
      mark = [||];
      stamp = 0;
      rank_of = [||];
      cache =
        {
          valid = false;
          prev_now = 0;
          min_slack = 0;
          live = [||];
          runnable = [||];
          pud = [||];
          rem = [||];
          probe = [| 0.0 |];
          decision = Scheduler.create_decision ();
        };
    }
  in
  {
    Scheduler.name = "rua-lock-free";
    decide = (fun ~now ~jobs ~remaining -> decide s ~now ~jobs ~remaining);
  }
