(** Minimal JSON emitter and parser.

    The repository deliberately has no JSON dependency; the exporters
    and the CLI's [--json] mode need serialisation, and the bench
    harness's append-only trajectory needs to read its own output
    back, which this covers. Strings are escaped per RFC 8259;
    non-finite floats are emitted as [null] (JSON has no NaN). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** [to_string j] is the compact serialisation of [j]. *)

val lines_to_string : t list -> string
(** [lines_to_string xs] serialises [xs] as a JSON array with one
    element per line (stable, diff-friendly output for golden
    files). *)

exception Parse_error of string

val of_string : string -> t
(** [of_string s] parses one JSON document. Numbers with no fraction
    or exponent parse as [Int], all others as [Float] — the inverse of
    the emitter. Raises {!Parse_error} (with a byte offset) on
    malformed input or trailing garbage. *)

val of_string_opt : string -> t option
(** [of_string_opt s] is [of_string s], or [None] on a parse error. *)

val member : string -> t -> t option
(** [member k j] is field [k] of object [j]; [None] when absent or
    when [j] is not an object. *)
