(** Deterministic chaos plans: composable failure schedules over a {!Net.t}.

    The one fault-plan type of the netsim.  It covers the full failure
    surface the netsim models: site crashes ({!event.Crash}), link
    partitions ({!event.Cut} — clean bisections or flapping single links),
    time-windowed loss elevation ({!event.Loss_burst}, per-link or net-wide)
    and link degradation ({!event.Degrade}, latency/bandwidth multipliers).
    One-off crashes in tests and examples use {!Net.crash_at} and
    {!Net.crash_for} instead.

    Plans are {e pure data}: generated from split RNG streams, inspectable,
    storable ({!to_string}/{!of_string}) and replayable against several
    networks, so runs with and without rear guards (paper §5) see the
    {e same} failure schedule.  Every injected event is emitted as a tracer instant
    (category ["chaos"]) and counted in the metrics registry
    ([chaos.injected] / [chaos.healed] / [chaos.skipped], labelled by
    kind). *)

type link = Site.id * Site.id

type event =
  | Crash of { site : Site.id; at : float; downtime : float }
      (** crash at [at], restart at [at +. downtime]; skipped (and counted
          under [chaos.skipped]) when the site is already down, together
          with its paired restart *)
  | Cut of { links : link list; at : float; duration : float; label : string }
      (** disable every listed link for the window; overlapping cuts of the
          same link are reference-counted, so a link heals only when the
          last window covering it closes *)
  | Loss_burst of { link : link option; at : float; duration : float; rate : float }
      (** elevate loss to [rate] for the window, on one link or ([None])
          net-wide; overlapping bursts combine to the worst rate *)
  | Degrade of {
      link : link;
      at : float;
      duration : float;
      latency : float;  (** latency multiplier, >= 1.0 slows the link *)
      bandwidth : float;  (** bandwidth multiplier, <= 1.0 slows the link *)
    }

type plan = event list

val sort : plan -> plan

val counts : plan -> (string * int) list
(** Events per kind (["crash"], ["cut"], ["loss"] or ["degrade"], the metric
    label), sorted by kind name. *)

val crash_windows : plan -> (Site.id * (float * float)) list

val double_failure_window : plan -> Site.id list -> bool
(** [double_failure_window plan itinerary] is true when some {e adjacent}
    pair of the itinerary has overlapping crash windows — the rear-guard
    protocol's unavoidable loss case (agent site and guard site down at
    once, paper §5). *)

(** {1 Generators}

    All pure; they only draw from the given [rng]. *)

val crashes :
  rng:Tacoma_util.Rng.t ->
  sites:Site.id list ->
  rate:float ->
  mean_downtime:float ->
  until:float ->
  plan
(** For each site, crashes arrive as a Poisson process with [rate] crashes
    per second and exponentially distributed downtime, drawn from its own
    split of [rng].  A site's next crash comes only after it is back up, so
    applying one such plan never skips a crash. *)

val flapping :
  rng:Tacoma_util.Rng.t ->
  topo:Topology.t ->
  rate:float ->
  mean_downtime:float ->
  until:float ->
  plan
(** Single random links go down for exponential windows, arriving as a
    net-wide Poisson process with [rate]. *)

val bisections :
  rng:Tacoma_util.Rng.t ->
  topo:Topology.t ->
  rate:float ->
  mean_downtime:float ->
  until:float ->
  plan
(** Clean partitions: each event draws a random proper site cut and takes
    down every crossing link for the window. *)

val loss_bursts :
  rng:Tacoma_util.Rng.t ->
  topo:Topology.t ->
  rate:float ->
  mean_duration:float ->
  loss:float ->
  until:float ->
  plan
(** Loss windows at [loss] probability; each burst hits either one random
    link or the whole net (even odds). *)

val degradations :
  rng:Tacoma_util.Rng.t ->
  topo:Topology.t ->
  rate:float ->
  mean_duration:float ->
  latency_factor:float ->
  bandwidth_factor:float ->
  until:float ->
  plan

(** Rates for {!mixed}: crashes are per site per second, everything else is
    net-wide. *)
type profile = {
  crash_rate : float;
  mean_downtime : float;
  bisection_rate : float;
  mean_partition : float;
  flap_rate : float;
  mean_flap : float;
  loss_burst_rate : float;
  mean_loss_burst : float;
  burst_loss : float;
  degrade_rate : float;
  mean_degrade : float;
  latency_factor : float;
  bandwidth_factor : float;
}

val default_profile : profile

val mixed :
  rng:Tacoma_util.Rng.t ->
  topo:Topology.t ->
  ?profile:profile ->
  until:float ->
  unit ->
  plan
(** All five fault classes combined, each drawn from its own split of [rng]
    (in a fixed order, so tuning one rate never perturbs the others'
    schedules), merged and sorted by time. *)

(** {1 Application} *)

val validate : Topology.t -> plan -> (unit, string) result

val apply : Net.t -> plan -> unit
(** Schedule every event (and the end of its window) on the network's
    engine.  Overlapping windows compose as documented per {!event} case.
    @raise Invalid_argument when {!validate} rejects the plan. *)

(** {1 Persistence}

    A plan serialises to one line per event — stable enough to check into a
    repo, diff, or replay from the [tacoma chaos] CLI. *)

val to_string : plan -> string
val of_string : string -> (plan, string) result
val pp : Format.formatter -> plan -> unit
