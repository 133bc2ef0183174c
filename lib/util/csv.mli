(** Minimal CSV writing/reading: the one CSV escaper behind the
    flight-recorder and timeline exports.

    Quoting follows RFC 4180: fields containing commas, quotes, CRs or
    newlines are double-quoted with inner quotes doubled. *)

val escape_field : string -> string
(** Quote a field if needed. *)

val row_to_string : string list -> string
(** One CSV line, without the trailing newline. *)

val parse_line : string -> string list
(** Parse one line (handles quoted fields; raises [Invalid_argument] on
    an unterminated quote). *)
