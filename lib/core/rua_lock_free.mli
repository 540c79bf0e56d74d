(** Lock-free RUA (§5).

    With lock-free object sharing, dependencies never arise: every
    job's dependency chain is the job itself. The algorithm therefore
    skips chain computation and deadlock detection entirely, computes
    each job's PUD in O(1), sorts by PUD, and inserts single jobs into
    the ECF tentative schedule with a feasibility test after each —
    O(n²) total versus lock-based RUA's O(n² log n). *)

val make : unit -> Scheduler.t
(** [make ()] is a lock-free RUA scheduler instance. *)

(** {2 Sort kernels}

    The decider's two orders over [int] permutations, exposed for the
    property tests. A [resort_*] finishes a sort from any starting
    permutation of the prefix [perm.(0) .. perm.(n-1)] with an
    insertion pass of about [4·n] moves, which is linear on a nearly
    sorted prefix, and hands what is left to the heapsort when the
    budget runs out. It returns [true] iff the insertion pass alone
    finished. Both orders are total, so the result does not depend on
    the starting permutation. None of them allocates. *)

val resort_pud : pud:float array -> jid:int array -> int array -> int -> bool
(** [resort_pud ~pud ~jid perm n] sorts into {!Pud.sort}'s order. *)

val sort_ecf : ect:int array -> int array -> int -> unit
(** [sort_ecf ~ect perm n] heapsorts admission ranks into schedule
    positions: ascending [ect.(r)], ties by ascending rank [r]. *)

val resort_ecf : ect:int array -> int array -> int -> bool
(** [resort_ecf ~ect perm n] sorts into {!sort_ecf}'s order. *)
