(** Shared harness for the test suite's randomised parts: one root seed
    from the [RTLF_SEED] environment variable (default 42), printed on
    failure so randomised runs reproduce. *)

val default_seed : int

val seed : int
(** The active root seed: [RTLF_SEED] if set and numeric, else
    {!default_seed}. *)

val rand_state : unit -> Random.State.t
(** Fresh stdlib random state derived from {!seed} (for QCheck). *)

val prng : unit -> Rtlf_engine.Prng.t
(** Fresh deterministic engine PRNG derived from {!seed}. *)

val to_alcotest : QCheck.Test.t -> unit Alcotest.test_case
(** [QCheck_alcotest.to_alcotest] with the seeded random state. *)

val run : string -> (string * unit Alcotest.test_case list) list -> unit
(** [Alcotest.run] that prints [RTLF_SEED=<seed>] on failure before
    re-raising. *)

val fingerprint : Rtlf_sim.Simulator.result -> (string * string) list
(** [fingerprint r] serialises every field of [r] except [static], as
    named field groups ([outcomes], [time], [events], [distributions],
    [contention], [per_task], [audit], [trace]) of ["field value"]
    lines: ints in decimal, floats in [%h], the trace one entry per
    line in {!Rtlf_sim.Trace.iter} order. Two results agree field for
    field exactly when their fingerprints are equal. *)

val fingerprint_diff :
  (string * string) list -> (string * string) list -> string option
(** [fingerprint_diff a b] names the first group of [a] whose contents
    differ in [b], with the first differing line of each side, or is
    [None] when they agree. *)
