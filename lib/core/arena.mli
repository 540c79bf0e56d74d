(** Reusable scratch storage for the lock-based RUA decider.

    [Rua_lock_based] is the only scheduler that sorts through cells:
    each instance owns one arena, and every [decide] call fills the
    same preallocated cell array instead of building and sorting fresh
    lists. [dummy_job] is also the vacant-slot filler of
    [Tentative_schedule] and the simulator's live view. Cells are
    mutable records reused across calls: [key] is the sort key (a
    chain's PUD), [jid] the deterministic tiebreak, [job]/[chain] the
    payload. *)

type cell = {
  mutable key : float;
  mutable jid : int;
  mutable job : Rtlf_model.Job.t;
  mutable chain : Rtlf_model.Job.t list;
}

val dummy_job : Rtlf_model.Job.t
(** Inert placeholder occupying vacant slots; never live, never
    dispatched ([jid = -1]). *)

type t
(** A growable pool of cells. *)

val create : unit -> t

val cells : t -> n:int -> cell array
(** [cells arena ~n] is the backing array, grown (amortised doubling)
    to hold at least [n] cells. Slots beyond the caller's filled prefix
    hold stale or dummy data — always iterate with an explicit
    bound. *)

val scrub : cell array -> n:int -> unit
(** [scrub cells ~n] resets the first [n] cells to the dummy payload so
    the arena does not retain job references between invocations. *)

val sort : cell array -> n:int -> cmp:(cell -> cell -> int) -> unit
(** [sort cells ~n ~cmp] sorts the prefix [0, n) in place (heapsort,
    zero allocation). [cmp] must be a total order for the result to be
    deterministic. *)
