(** The original list-based RUA implementations, retained as oracles.

    These are the original list-based decision procedures — including
    the deep tentative-schedule copy per greedy candidate — kept
    verbatim so the differential suite can prove the optimized RUA
    deciders return {e bit-identical} [Scheduler.decision] records
    (dispatch, aborts, rejected, schedule order and the charged [ops]
    count) on seeded random scenes. They are deliberately slow; never
    wire them into the simulator outside of tests. *)

val rua_lock_free : unit -> Scheduler.t
val rua_lock_based : locks:Rtlf_model.Lock_manager.t -> Scheduler.t
