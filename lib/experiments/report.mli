(** Aligned text tables for experiment output.

    Every figure/table reproduction prints through this module so the
    bench harness emits the paper's rows/series in a uniform,
    grep-friendly format. *)

val section : Format.formatter -> string -> unit
(** [section fmt title] prints a banner line. *)

val subsection : Format.formatter -> string -> unit
(** [subsection fmt title] prints a lighter banner. *)

val table :
  Format.formatter -> header:string list -> rows:string list list -> unit
(** [table fmt ~header ~rows] prints a column-aligned table. Rows
    shorter than the header are padded with empty cells. *)

val f2 : float -> string
(** [f2 v] formats with two decimals. *)

val pct : float -> string
(** [pct v] formats a ratio as a percentage with one decimal. *)

val ns_us : float -> string
(** [ns_us v] formats nanoseconds as microseconds with two
    decimals. *)

val with_ci : Rtlf_engine.Stats.summary -> (float -> string) -> string
(** [with_ci s fmt_mean] is ["mean ± ci"] using [fmt_mean] for both
    numbers. *)

val histogram :
  Format.formatter -> title:string -> Rtlf_engine.Stats.histogram -> unit
(** [histogram fmt ~title h] prints a titled ASCII latency
    histogram. *)

val contention : Format.formatter -> Rtlf_sim.Contention.t array -> unit
(** [contention fmt profile] prints the per-object contention table,
    omitting objects with no recorded activity. *)
