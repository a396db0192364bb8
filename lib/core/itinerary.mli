(** Itinerary planning for travelling agents.

    An agent that must visit a set of sites (the StormCast collector, an
    auditor, a search agent) should order its stops by network cost rather
    than site number; this module plans tours over the current topology and
    converts between site lists and the name lists that live in folders. *)

val plan :
  Kernel.t -> from:Netsim.Site.id -> Netsim.Site.id list -> Netsim.Site.id list
(** Greedy nearest-neighbour tour: starting at [from], repeatedly visit the
    cheapest (lowest idle-network latency) unvisited site.  Unreachable
    sites are appended at the end in ascending order so nothing is silently
    dropped.  [from] itself is not included in the result; duplicates are
    visited once. *)

val round_trip :
  Kernel.t -> from:Netsim.Site.id -> Netsim.Site.id list -> Netsim.Site.id list
(** [plan] plus the way home: the tour ends back at [from]. *)

val tour_cost : Kernel.t -> from:Netsim.Site.id -> Netsim.Site.id list -> float
(** Total idle-network latency of visiting the sites in the given order
    (unreachable hops cost [infinity]). *)

val to_folder : Kernel.t -> Folder.t -> Netsim.Site.id list -> unit
(** Replace the folder's contents with the site names, in order — the form
    [rexec]-travelling agents pop from an ITINERARY folder. *)

val of_folder : Kernel.t -> Folder.t -> Netsim.Site.id list
(** Parse a folder of site names (unknown names are skipped). *)
