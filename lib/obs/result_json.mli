(** Machine-readable serialisation of simulation results.

    Backs [rtlf sim --json]: the full {!Rtlf_sim.Simulator.result} —
    counters, AUR/CMR, sojourn/blocking/scheduler-cost histograms with
    p50/p90/p99, per-object contention profile and per-task summaries
    — as one JSON object, so benchmark sweeps can be scripted without
    scraping the human-readable report. *)

val summary : Rtlf_engine.Stats.summary -> Json.t
(** Serialise a mean/CI summary. *)

val histogram : Rtlf_engine.Stats.histogram -> Json.t
(** Serialise a histogram with its percentiles and buckets. *)

val contention : Rtlf_sim.Contention.t -> Json.t
(** Serialise one object's contention counters. *)

val retry_tails : Rtlf_engine.Stats.P2.tails -> Json.t
(** Serialise streaming P² retry percentiles. *)

val audit : Rtlf_sim.Audit.report -> Json.t
(** Serialise the Theorem-2 budget auditor's report (budgets, checked
    count, and every violation). *)

val task_result : Rtlf_sim.Simulator.task_result -> Json.t
(** Serialise one task's per-run summary. *)

val result : Rtlf_sim.Simulator.result -> Json.t
(** Serialise a whole run. *)

val to_string : Rtlf_sim.Simulator.result -> string
(** [to_string res] is [result res] serialised compactly. *)

val metrics : Rtlf_sim.Simulator.result -> Json.t
(** [metrics res] is the "rtlf-metrics-v1" document: the observability
    sections of a run — Theorem-2 audit, per-task P² retry tails with
    their analytical bounds, per-object contention, per-component
    attribution totals (when the run kept a complete trace), and the
    trace-drop count — without the bulky histograms. This is what
    [rtlf sim --metrics-out] writes and CI archives. *)

val metrics_to_string : Rtlf_sim.Simulator.result -> string

val write_metrics : path:string -> Rtlf_sim.Simulator.result -> unit
(** [write_metrics ~path res] writes {!metrics_to_string} to [path]. *)
