(** Chrome trace-event / Perfetto exporter.

    Serialises a simulator trace into the JSON array flavour of the
    {{:https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU}
    trace-event format}, openable in [ui.perfetto.dev] or
    [chrome://tracing]:

    - one "thread" lane per {e task} (metadata [thread_name] events),
      plus a dedicated scheduler lane;
    - complete (["ph":"X"]) duration events for running, blocking,
      retry and access spans (reconstructed by {!Spans}), and for each
      scheduler invocation with its op count and charged cost;
    - instant (["ph":"i"]) events for arrivals, preemptions, wakes,
      completions and aborts;
    - counter (["ph":"C"]) tracks charting cumulative lock-free
      retries, one per contended object plus a process-wide total, so
      interference bursts line up visually with the job lanes;
    - blame flow (["ph":"s"]/["ph":"f"]) arrows linking each lock
      holder to the job it blocked (start at the victim's [Block] on
      the holder's lane, finish at its [Wake]) and each lock-free
      invalidator to the retry it caused (start at the invalidator's
      committed access, finish at the victim's [Retry]) — Perfetto
      renders the causal hand-offs the attribution pass accounts for.

    Timestamps are microseconds, per the format; durations keep ns
    precision as fractional µs. *)

val events : Rtlf_sim.Trace.t -> Json.t list
(** [events trace] is the flat event list: metadata, then duration
    events, instants, counter samples and blame flows. It walks the
    trace twice: once in {!Spans.of_trace}, once for the last three. *)

val to_string : Rtlf_sim.Trace.t -> string
(** [to_string trace] is the full JSON document, one event per line. *)

val write_file : path:string -> Rtlf_sim.Trace.t -> unit
(** [write_file ~path trace] writes {!to_string} to [path]. *)
