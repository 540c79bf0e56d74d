(** ASCII execution timelines rendered from simulation traces.

    Turns a {!Rtlf_sim.Trace.t} into a per-job Gantt-style chart: one
    row per job, one column per time bucket, showing when each job ran
    (the running spans of {!Spans}), was blocked, retried, completed or
    was aborted. Meant for examples, debugging and documentation — the
    rendering is deterministic and tested. *)

type cell =
  | Idle       (** job not live or not scheduled in this bucket *)
  | Run        (** job held the CPU at some point in the bucket *)
  | Blocked    (** job spent the bucket blocked on a lock *)
  | Retried    (** a lock-free retry fired in the bucket *)
  | Done       (** job completed in this bucket *)
  | Killed     (** job was aborted in this bucket *)

type row = { jid : int; label : string; cells : cell array }

type t = {
  bucket_ns : int;     (** time width of one column *)
  origin : int;        (** virtual time of the first column *)
  rows : row list;
      (** one per job, in the order of the first entry naming it: its
          arrival, on a complete trace *)
  truncated : int;     (** jobs beyond the [max_jobs] cap, not rendered *)
}

val build : ?buckets:int -> ?max_jobs:int -> Rtlf_sim.Trace.t -> t
(** [build trace] lays the trace out over [buckets] columns (default
    72), keeping the first [max_jobs] jobs (default 20). Jobs beyond
    the cap are counted in {!field-t.truncated} rather than silently
    dropped; {!render} appends a "… +N job(s)" footer when non-zero.
    Raises [Invalid_argument] on an empty trace or non-positive
    sizes. *)

val cell_char : cell -> char
(** [cell_char c] is the character used for [c]: ['.'] idle, ['#'] run,
    ['b'] blocked, ['r'] retried, ['C'] completed, ['X'] aborted. *)

val render : t -> string
(** [render timeline] is the multi-line chart with a legend. *)
