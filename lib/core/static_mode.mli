(** Static-mode scheduler: serve fresh synchronized releases from an
    ahead-of-time release-pattern table, delegate everything else to
    the dynamic decider.

    The wrapper is {e observationally identical} to the dynamic decider
    it wraps — same decisions, same abstract [ops] charges, bit for bit
    — so Theorem-2 auditing and attribution remain valid in static
    mode. Each decide takes one of two paths:

    - {e pattern}: a fresh synchronized release whose (task-subset
      mask, time-since-release) key is in the plan's table is answered
      by translating the stored template — no sort, no admission loop;
    - {e delegation}: everything else runs the wrapped dynamic decider
      (lock-free RUA's own validity cache serves its steady states); a
      fresh release with an unknown key is learned from the delegated
      decision.

    A job of a task the plan does not know makes its release
    ineligible for a template; it is simply delegated. *)

module Task = Rtlf_model.Task
module Job = Rtlf_model.Job

type algo = Rua_lf | Edf
(** Which dynamic decider is wrapped. The pattern table is RUA-only
    (EDF's decide is one O(n log n) sort, and its [ops] charge counts
    dead array entries, which a position template cannot reproduce), so
    every [Edf] decide is delegated. *)

type stats = {
  decides : int;
  pattern_hits : int;
  delegated : int;  (** decides served by the wrapped dynamic decider *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

type plan
(** The release-pattern table of a fixed task set: the full decision
    (dispatch, rejections, schedule order, charged [ops]) of the RUA
    lock-free decider on a fresh synchronized release of a task
    subset, keyed by (subset mask, time since release). Decisions are
    translation-invariant in the common arrival, so one entry serves
    every recurrence of the pattern. *)

val plan : tasks:Task.t list -> remaining:(Job.t -> int) -> plan
(** [plan ~tasks ~remaining] specialises [tasks] under the cost model
    [remaining] (the same closure the simulator hands its schedulers).
    Entries for the full set and each singleton, at the release
    instant, are synthesised ahead of time; other subsets and offsets
    are learned from delegated decisions, up to a fixed cap. Only the
    first 62 tasks in id order take part in patterns. A plan may be
    shared by several instances whose decides are serialized. *)

type t

val create : plan:plan -> fallback:Scheduler.t -> algo:algo -> t
(** [create ~plan ~fallback ~algo] wraps [fallback] (a
    [Rua_lock_free.make ()] or [Edf.make ()] instance). *)

val scheduler : t -> Scheduler.t
(** The wrapped scheduler. Its [name] is the fallback's name — static
    mode changes how decisions are produced, not what they are. *)

val stats : t -> stats
