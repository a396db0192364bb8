(** Metrics registry: counters, gauges and histograms keyed by
    (name x labels).  Always on — recording is a hashtable update and never
    perturbs the simulation (no RNG draws, no scheduling).

    A name is bound to one instrument kind; mixing kinds under one name
    raises [Invalid_argument] (it is a programming error, not data). *)

type t

type labels = (string * string) list
(** Label order is irrelevant: labels are sorted on lookup. *)

val create : unit -> t

val incr : t -> ?labels:labels -> ?by:int -> string -> unit
(** Counter increment ([by] defaults to 1). *)

val set_gauge : t -> ?labels:labels -> string -> float -> unit
val observe : t -> ?labels:labels -> string -> float -> unit

(** A hot path resolves its series once, then updates it with no lookup.
    Resolving creates the series (at 0, or empty), so it shows in [fold] and
    [pp] from then on: resolve on first use.  Series are never dropped. *)

val counter_cell : t -> ?labels:labels -> string -> int ref
val hist : t -> ?labels:labels -> string -> Hist.t

val counter : t -> ?labels:labels -> string -> int
(** 0 when the series does not exist. *)

val gauge : t -> ?labels:labels -> string -> float option
val histogram : t -> ?labels:labels -> string -> Hist.t option

val counter_total : t -> string -> int
(** Sum of a counter across all label sets. *)

type value = Counter of int | Gauge of float | Histogram of Hist.t

val fold : (name:string -> labels:labels -> value -> 'a -> 'a) -> t -> 'a -> 'a
(** Deterministic order: sorted by (name, labels). *)

val pp : Format.formatter -> t -> unit
(** Text dump in a prometheus-flavoured format, one series per line. *)
