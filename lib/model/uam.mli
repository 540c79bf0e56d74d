(** Unimodal arbitrary arrival model (UAM), Hermant & Le Lann [12].

    A task's arrivals are described by a tuple [⟨l, a, w⟩]: any sliding
    time window of length [w] contains at least [l] and at most [a]
    job arrivals. Simultaneous arrivals are allowed. The periodic model
    is the special case [⟨1, 1, w⟩]; larger [a] admits bursts.

    We adopt the standard discrete reading of the sliding-window
    constraints over an arrival sequence [t₀ ≤ t₁ ≤ …]:
    - max side: [tₖ₊ₐ − tₖ ≥ w] for every [k] (no window of length [w]
      holds more than [a] arrivals);
    - min side (for [l ≥ 1]): [tₖ₊ₗ − tₖ ≤ w] for every [k] (arrivals
      keep coming at least [l] per window once the stream starts). *)

type t = private { l : int; a : int; w : int }
(** Arrival law: at least [l] and at most [a] arrivals in any window of
    [w] virtual nanoseconds. *)

val make : l:int -> a:int -> w:int -> t
(** [make ~l ~a ~w] validates and builds a law. Raises
    [Invalid_argument] unless [0 <= l <= a], [1 <= a] and [w > 0]. *)

val periodic : period:int -> t
(** [periodic ~period] is [⟨1, 1, period⟩]. *)

val bursty : a:int -> w:int -> t
(** [bursty ~a ~w] is [⟨1, a, w⟩] — the law used by Theorem 2. *)

val max_arrivals_in : t -> span:int -> int
(** [max_arrivals_in law ~span] is the paper's window-counting bound
    [a * (⌈span/w⌉ + 1)]: the most arrivals possible in {e any}
    interval of length [span]. *)

val min_arrivals_in : t -> span:int -> int
(** [min_arrivals_in law ~span] is [l * ⌊span/w⌋], the fewest arrivals
    in any interval of length [span] once the stream is active. *)

val generate :
  t -> Rtlf_engine.Prng.t -> start:int -> horizon:int -> int list
(** [generate law g ~start ~horizon] draws a random arrival trace in
    [\[start, horizon)] satisfying [law], sorted non-decreasing. The
    first arrival lands within [\[start, start + w)]. *)

type cursor
(** A lazily drawn arrival trace: the same draws, in the same order, as
    {!generate}, one arrival at a time. *)

val cursor : t -> Rtlf_engine.Prng.t -> start:int -> horizon:int -> cursor
(** [cursor law g ~start ~horizon] starts the trace {!generate} would
    draw from [g], drawing its first arrival now. *)

val peek : cursor -> int
(** [peek c] is the next arrival time, or [max_int] once the trace is
    exhausted. *)

val advance : cursor -> unit
(** [advance c] consumes the arrival [peek c] and draws the next one.
    No-op once exhausted. *)

val generate_worst_burst : t -> start:int -> horizon:int -> int list
(** [generate_worst_burst law ~start ~horizon] is the adversarial trace
    used in Theorem 2's proof: [a] simultaneous arrivals at the front
    of every window. *)

val validate : t -> int list -> (unit, string) result
(** [validate law trace] checks the two sliding-window constraints on a
    sorted trace; the error message pinpoints the first violation.
    The min-side constraint is only enforced between consecutive
    arrivals (a finite trace necessarily stops). *)
