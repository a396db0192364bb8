(** Group communication in the style of Horus [vRHB94]: process groups with
    agreed views, heartbeat failure detection, and FIFO- or totally-ordered
    multicast.

    The TACOMA prototype's third [rexec] implementation runs over Horus
    (paper §6); rear guards (§5) and load-reporting brokers also want a
    failure-detecting, reliably-ordered channel.  This is a from-scratch
    implementation over {!Netsim}:

    - every member heartbeats the coordinator; the coordinator heartbeats
      the group; staleness beyond [fail_timeout] triggers a view change
      installed by the coordinator (or by the next-ranked member when the
      coordinator itself is suspected);
    - FIFO multicast unicasts to each member with per-sender sequence
      numbers and a hold-back queue;
    - total order routes through the coordinator, which stamps a global
      sequence number;
    - a crashed member that restarts can [rejoin]; the coordinator runs the
      state-transfer hook so the joiner catches up. *)

type t

type config = {
  hb_interval : float;   (** heartbeat period, seconds *)
  fail_timeout : float;  (** silence before a member is suspected *)
  payload_overhead : int (** header bytes charged per protocol message *)
}

val default_config : config

val create :
  ?config:config -> Netsim.Net.t -> name:string -> members:Netsim.Site.id list -> t
(** Installs an endpoint on every member site and starts heartbeating.
    All members must currently be up. *)

val name : t -> string
val view_at : t -> Netsim.Site.id -> View.t option
(** The view currently installed at one member ([None] if that site is not
    an active member, e.g. crashed or removed). *)

(** {1 Callbacks} — registered per member site. *)

val on_deliver : t -> Netsim.Site.id -> (sender:Netsim.Site.id -> string -> unit) -> unit
val set_state_provider : t -> Netsim.Site.id -> (unit -> string) -> unit
(** Called at the coordinator when a joiner needs to catch up. *)

val on_state : t -> Netsim.Site.id -> (string -> unit) -> unit
(** Called at a joiner with the coordinator's state snapshot. *)

(** {1 Operations} *)

val mcast : t -> from:Netsim.Site.id -> ?total:bool -> string -> unit
(** Multicast [data] to the sender's current view.  [total] (default false)
    routes through the coordinator for a global delivery order.  A sender
    that is not an active member is ignored. *)

val rejoin : t -> Netsim.Site.id -> unit
(** Ask the current coordinator to re-admit this (restarted) site. *)
