(** ECF-ordered tentative schedules with dependency-respecting
    insertion and feasibility testing (§3.4, §3.4.1).

    A schedule is an ordered sequence of jobs, each carrying an
    {e effective} absolute critical time. Insertion keeps the sequence
    in earliest-critical-time-first (ECF) order; when a dependent must
    precede a job with an earlier critical time (the paper's "Case 2"),
    the dependent's effective critical time is clamped down to its
    successor's and it is inserted immediately before it (Figures 4
    and 5). Feasibility checks that cumulative remaining work meets
    every effective critical time.

    Jobs are named by {e rank}: an index [0 .. n-1] into the caller's
    per-job arrays of remaining cost and absolute critical time, fixed
    for one {!reset}. Positions hold ranks in flat int arrays reused
    across scheduler invocations, so a decision allocates nothing
    here.

    Every structural operation charges the schedule's [ops] counter
    with its {e abstract} cost — ⌈log₂(len+1)⌉ for an ordered-list
    lookup/insert/remove and [len] for a feasibility walk — matching
    the paper's complexity accounting (§3.6) independently of this
    implementation's physical data layout. {!try_insert_chain} rolls a
    rejected probe back in place instead of probing a deep copy, and
    charges exactly what the copy-and-insert discipline of
    [Reference] charges. *)

type t
(** A tentative schedule. *)

val create : unit -> t
(** [create ()] is an empty schedule with no ranks; {!reset} it before
    use. *)

val reset : t -> now:int -> rem:int array -> act:int array -> n:int -> unit
(** [reset sched ~now ~rem ~act ~n] empties [sched] for a new scheduler
    invocation over ranks [0 .. n-1]: rank [r] has remaining cost
    [rem.(r)] (including synchronisation overheads, as the caller sees
    fit) and absolute critical time [act.(r)]. Both arrays are read,
    not copied, and must hold at least [n] entries. Zeroes {!ops} and
    keeps the backing arrays. *)

val ops : t -> int
(** [ops sched] is the abstract cost charged since the last
    {!reset}. *)

val length : t -> int
(** [length sched] is the number of scheduled ranks. *)

val rank_at : t -> int -> int
(** [rank_at sched p] is the rank at position [p], for
    [0 <= p < length sched]. *)

val eff_ct_at : t -> int -> int
(** [eff_ct_at sched p] is the effective critical time at position
    [p]. *)

val mem : t -> rank:int -> bool
(** [mem sched ~rank] is [true] iff the rank is in the schedule
    (charged as an ordered lookup). *)

val insert_chain : t -> int array -> off:int -> len:int -> unit
(** [insert_chain sched chain ~off ~len] inserts a job and its
    dependents, given as the ranks [chain.(off) .. chain.(off+len-1)]
    head-first (execution order; the tail is the examined job). Per
    §3.4.1 the chain is processed tail to head; each element must end
    up before its successor in the chain, clamping effective critical
    times as needed, including the removal-and-reinsertion of elements
    already present (Figure 5). A one-rank chain is a plain ECF
    insertion, skipped when the rank is already present. *)

val feasible : t -> bool
(** [feasible sched] walks the schedule accumulating remaining costs
    from [now] and checks every effective critical time is met. *)

val try_insert_chain : t -> int array -> off:int -> len:int -> bool
(** [try_insert_chain sched chain ~off ~len] is {!insert_chain}
    followed by {!feasible}, rolled back in place when the result is
    infeasible. Returns the feasibility verdict. Ops charged by a
    rejected probe stay charged, exactly as they did when the probe
    ran on a discarded copy. *)
