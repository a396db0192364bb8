(** Byte and message accounting.  These counters are the measured quantity
    in the bandwidth-conservation experiments (paper §1): an agent
    architecture wins precisely when it moves fewer byte-hops than the
    client/server baseline. *)

type t

val create : Obs.Metrics.t -> t
(** Per-link bytes are read from the registry's [net.link.bytes] series,
    which {!Net} charges. *)

(** Recording (called by {!Net}). *)

val record_send : t -> bytes:int -> hops:int -> unit
val record_delivery : t -> unit
val record_drop : t -> unit

val link_label : Site.id -> Site.id -> string
(** ["a-b"] with [a < b]: the [link] label of the per-link series. *)

(** Reading. *)

val messages_sent : t -> int
val messages_delivered : t -> int
val messages_dropped : t -> int

val bytes_sent : t -> int
(** Total payload bytes handed to the network (counted once per message). *)

val byte_hops : t -> int
(** Sum over messages of [size * hops]: the network-wide bandwidth cost. *)

val link_bytes : t -> Site.id -> Site.id -> int
(** Bytes carried by one undirected link. *)
