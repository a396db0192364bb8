(** E8 — the paper's applications (§6): StormCast and agent mail.

    {b E8a StormCast}: identical synthetic weather over a sensor network;
    the collector-agent architecture versus the client/server pull.
    Expected shape: identical predictions and accuracy, with the agent
    moving a small fraction of the bytes — the motivating claim of §1
    realised on the paper's own application.

    {b E8b agent mail}: a message burst between users on a crashing
    network, with a forwarding rule, a vacation auto-responder and a
    mailing list in play.  Expected shape: mail to healthy homes is
    delivered exactly once per recipient; messages racing a crashed home
    are the only losses (and are quantified). *)

type stormcast_row = {
  architecture : string;
  bytes_moved : int;
  readings_moved : int;
  completion_s : float;
  hit_rate : float;
  false_alarm_rate : float;
}

type mail_row = {
  scenario : string;
  sent : int;
  delivered : int;
  extra : string; (** scenario-specific note *)
}

type latency_row = {
  l_architecture : string;
  detections : int;
  mean_detection_latency : float; (** production of an anomalous reading to
                                      its arrival at the centre, seconds *)
  l_bytes : int;
}

val run_stormcast : ?stations:int -> ?hours:int -> unit -> stormcast_row list

val run_latency : ?stations:int -> ?hours:int -> unit -> latency_row list
(** {b E8c}: resident monitor agents (push) versus the roaming collector
    touring at the end of the observation window — same anomalies, but the
    push architecture detects them within a network round-trip while the
    tour waits for the collector. *)

val print_table : Format.formatter -> unit
