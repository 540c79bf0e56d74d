(** Time/utility functions (TUFs), Jensen et al. [15].

    A TUF maps a job's {e sojourn time} (time since arrival, in virtual
    nanoseconds) to the utility accrued by completing at that instant.
    Every TUF has a single {e critical time} [c]: utility is zero at and
    after [c] (the paper's convention, §2). Deadlines are the special
    case of binary-valued downward-step TUFs. *)

type t =
  | Step of { height : float; c : int }
      (** [height] utility anywhere in [\[0, c)], zero from [c] on —
          i.e. a classical deadline of relative value [height]. *)
  | Linear of { u0 : float; c : int }
      (** Linearly decreasing from [u0] at time 0 to zero at [c]. *)
  | Parabolic of { u0 : float; c : int }
      (** Downward parabola [u0 * (1 - (t/c)^2)]: starts flat, falls
          increasingly steeply to zero at [c]. Non-increasing. *)
  | Piecewise of { points : (int * float) array; c : int }
      (** Linear interpolation over [points] (sorted by time, first
          point at time 0), zero from [c] on. Permits the increasing
          shapes of the paper's Figure 1(c). *)

val step : height:float -> c:int -> t
(** [step ~height ~c] is a downward-step TUF. Raises [Invalid_argument]
    if [c <= 0] or [height < 0]. *)

val linear : u0:float -> c:int -> t
(** [linear ~u0 ~c] decreases linearly from [u0] to zero at [c]. *)

val parabolic : u0:float -> c:int -> t
(** [parabolic ~u0 ~c] is the downward parabola described above. *)

val piecewise : points:(int * float) array -> c:int -> t
(** [piecewise ~points ~c] interpolates [points] and clamps to zero
    from [c]. Raises [Invalid_argument] if [points] is empty, not
    sorted by strictly increasing time, does not start at time 0, or
    contains a negative utility. *)

val utility : t -> at:int -> float
(** [utility f ~at] is the utility of completing at sojourn time [at].
    Zero for [at >= critical_time f]; [at < 0] is treated as 0. *)

val utility_into : t -> at:int -> float array -> int -> unit
(** [utility_into f ~at dst i] stores [utility f ~at] in [dst.(i)].
    Unlike [utility], it allocates nothing under any TUF: a float
    returned from a call that is not inlined is boxed, and the
    schedulers read a utility per live job per invocation. *)

val critical_time : t -> int
(** [critical_time f] is the single time at which [f] drops to (and
    stays at) zero. *)

val initial_utility : t -> float
(** [initial_utility f] is [utility f ~at:0] — the paper's [Uᵢ(0)],
    the denominator contribution in AUR. *)

val max_utility : t -> float
(** [max_utility f] is the supremum of [f] over [\[0, c)]; differs from
    [initial_utility] only for increasing piecewise shapes. *)

val is_non_increasing : t -> bool
(** [is_non_increasing f] is [true] iff [f] never increases with time —
    the hypothesis of Lemmas 4 and 5. *)

val scale : t -> float -> t
(** [scale f k] multiplies utilities by [k >= 0]. *)
