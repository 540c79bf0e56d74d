(** Flat CSV exporter for simulator traces.

    One row per trace entry, schema
    [time_ns,event,jid,obj,extra]: [jid]/[obj] are empty when the
    event has none, [extra] carries the remaining payload as
    [;]-separated [key=value] pairs ([task=<id>;at=<ns>] for arrivals,
    [ops=<n>;cost=<ns>] for scheduler invocations). Suited to
    spreadsheet / pandas post-processing. *)

val header : string
(** The column header row (no trailing newline). *)

val row : Rtlf_sim.Trace.entry -> string
(** [row e] is one CSV line (no trailing newline). *)

val to_string : Rtlf_sim.Trace.t -> string
(** [to_string trace] is the full document, header first, one entry
    per line, trailing newline. *)

val write_file : path:string -> Rtlf_sim.Trace.t -> unit
(** [write_file ~path trace] writes {!to_string} to [path]. *)

val of_string : string -> (Rtlf_sim.Trace.t, string) result
(** [of_string s] parses a document produced by {!to_string} back into
    a trace — the CSV export is lossless, so round-tripping preserves
    every entry. Returns [Error] with a message naming the line on
    malformed input: a row that does not parse, including a
    negative [time_ns], jid, obj, [task=], [at=], [core=], [from=],
    [to=], [lost=], [handler=], [ops=] or [cost=] (the message names the
    field), an [extra] key given twice, not carried by the row's event
    or missing from it (the message names the key), or a history that
    breaks
    {!Rtlf_sim.Trace.check} without a discipline (the message names the
    first offending row and its jid). A [by=-1] and an empty obj field
    are legal: the simulator writes them. One trailing ['\r'] per line
    is ignored, so a file saved with CRLF line ends reads as its LF
    original. *)

val read_file : path:string -> (Rtlf_sim.Trace.t, string) result
(** [read_file ~path] is {!of_string} on the contents of [path]
    ([Error] on I/O failure). *)

val write_contention_file :
  path:string -> Rtlf_sim.Contention.t array -> unit
(** [write_contention_file ~path profile] writes the contention-profile
    CSV (what [rtlf sim --contention-csv] writes) to [path]: the header
    [obj,acquires,conflicts,retries,blocked_ns,max_queue_depth], then
    one row per shared object. *)
