(** The one JSON value type, printer and reader behind every JSON
    artifact ccsim writes (metrics, flight-recorder and timeline NDJSON,
    Chrome traces, profiler and run reports, benchmark reports) and
    reads back ([ccsim analyze] / [ccsim explain]).

    Numbers follow one spelling rule: a non-finite float prints as
    [null]; an integral float below 1e15 in magnitude as [%.1f]; any
    other float as {!shortest}, with [.0] appended if that spelling has
    neither a point nor an exponent, so the reader can tell it from an
    [Int]. Ints print as decimal digits. Every finite float therefore
    reads back to the same bits. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in printing order *)

exception Parse_error of string

val string_members : (string * string) list -> (string * t) list
(** [[(k, v); ...]] as object members with string values, e.g. a
    label set or the [extra] pairs an NDJSON line starts with. *)

val to_line : t -> string
(** Compact layout on one line, no spaces: [{"job":"t1","v":1.5}]. The
    layout of NDJSON lines and Chrome-trace events. *)

val add_line : Buffer.t -> t -> unit
(** Append {!to_line} and a newline: one NDJSON record. *)

val to_string : t -> string
(** Spaced layout on one line: [{"events_executed": 3, "gc": {...}}],
    members separated by [", "] and keys by [": "]. The layout of whole
    documents (reports). No trailing newline. *)

val of_string : string -> t
(** Parse exactly one JSON value, surrounding whitespace allowed. A
    number with a point or exponent reads as [Float], any other as [Int]
    (or [Float] if it overflows [int]). Raises {!Parse_error} on any
    malformed input, and never raises anything else. *)

val shortest : float -> string
(** The shorter of [%.12g] and [%.17g] that reads back to the same
    float; [null] if [v] is not finite. The printer's spelling of
    non-integral floats, also used for the float cells of CSV exports
    so they round-trip too. *)
