(* chaos_mix: the seeded invariant harness on seed-drawn chaos seeds — the
   full native stack (guarded journeys, broker bookings, cash purchases)
   under crashes, partitions, loss bursts and degradations, with no
   interpreter.  A simulation passes when its verdict holds every
   invariant. *)

module H = Chaos_harness
module Briefcase = Tacoma_core.Briefcase
module Rng = Tacoma_util.Rng

(* the harness seed *)
type input = int
type outcome = H.verdict

let gen rng = Rng.int rng 1_000_000

(* Traced, the plan is generated under its own span and replayed: the
   verdict is the one [run_seed ~seed] gives. *)
let simulate sp seed =
  if not (Span.enabled sp) then H.run_seed ~seed ()
  else
    let plan = Span.with_span sp "chaos.plan" (fun () -> H.plan_of_seed ~seed ()) in
    H.run_seed ~plan ~seed ()

let check _ v = H.passed v
let tamper v = { v with H.v_violations = [ "tampered verdict" ] }
let sweep ~jobs seeds = List.map H.passed (H.run_sweep ~jobs ~seeds ())

(* A journey briefcase as the escort ships it: identity, itinerary and a
   results folder that grows by one entry per hop. *)
let journey_briefcase ~hops =
  let bc = Briefcase.create () in
  Briefcase.set bc "JOURNEY" "journey-0";
  Tacoma_core.Folder.replace (Briefcase.folder bc "ITINERARY")
    (List.init hops (Printf.sprintf "site-%d"));
  Tacoma_core.Folder.replace (Briefcase.folder bc "RESULTS")
    (List.init hops (Printf.sprintf "hop-%d-done"));
  bc

let observe (l : Layer.t) ~seed _ (v : H.verdict) =
  let cfg = H.default_config in
  Layer.addi l "msgs" v.v_msgs_sent;
  Layer.addi l "msgs_dropped" v.v_msgs_dropped;
  Layer.addi l "bytes" v.v_bytes_sent;
  Layer.addi l "relaunches" v.v_relaunches;
  Layer.addi l "failovers" v.v_failovers;
  Layer.addi l "faults" (List.fold_left (fun a (_, n) -> a + n) 0 v.v_events);
  Layer.addi l "cash_minted" v.v_cash_minted;
  Layer.addi l "cash_banked" v.v_cash_banked;
  let rng = Rng.create (Int64.of_int seed) in
  let topo = Netsim.Topology.random ~rng ~n:cfg.sites ~p:cfg.link_prob () in
  Layer.engine l ~timers:cfg.sites ~events:(200 * cfg.sites);
  Layer.cancel l ~pairs:(50 * cfg.sites);
  Layer.send l ~topo ~msgs:(20 * cfg.sites) ~size:1024 ~seed;
  Layer.codec l
    (List.init (cfg.journeys * cfg.hops) (fun _ -> journey_briefcase ~hops:cfg.hops));
  Layer.sha256 l ~codes:[] ~bills:(4 * cfg.purchases);
  Layer.lookup l ~capacities:[ 1.0; 1.5; 2.0 ] ~lookups:(10 * cfg.sites)

let warmup = 32
