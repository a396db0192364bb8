(** Length-prefixed binary encoding for briefcases on the wire.

    Folders are "uninterpreted sequences of bits", so the codec must be
    8-bit clean; and briefcases are moved constantly, so the format is a
    flat sequence of length-prefixed strings with no index structure
    (paper §2: "elaborate index structures are not suitable"). *)

val encode_u32 : Buffer.t -> int -> unit
(** 4-byte big-endian unsigned integer.
    @raise Malformed on negative values. *)

val encode_string : Buffer.t -> string -> unit
(** 4-byte big-endian length, then the bytes. *)

val encode_strings : Buffer.t -> string list -> unit
(** 4-byte count, then each string. *)

type reader

val reader : string -> reader

exception Malformed of string

val read_u32 : reader -> int
val read_string : reader -> string
(** @raise Malformed on truncated input. *)

val read_strings : reader -> string list

val encoded_size : string -> int
(** Wire size of one encoded string. *)
