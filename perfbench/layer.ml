(* Per-layer observations of a traced run: named sums that the workloads
   add to after each simulation, and the probes that time one layer's
   public functions on inputs captured from that simulation.  Probes run
   outside the simulation span, so they never inflate it. *)

module Engine = Netsim.Engine
module Net = Netsim.Net
module Topology = Netsim.Topology
module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Codecache = Tacoma_core.Codecache
module Sha256 = Tacoma_util.Sha256
module Rng = Tacoma_util.Rng

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64
let get (t : t) name = Option.value ~default:0.0 (Hashtbl.find_opt t name)
let add (t : t) name v = Hashtbl.replace t name (get t name +. v)
let addi t name n = add t name (float_of_int n)

(* Time [f] and add its seconds to [name ^ "_s"]. *)
let timed t name f =
  let t0 = Span.now () in
  let r = f () in
  add t (name ^ "_s") (Span.now () -. t0);
  r

(* The load monitors' shape: [timers] periodic timers, each rescheduling
   itself one period after it fires. *)
let engine t ~timers ~events =
  let e = Engine.create () in
  let rec arm period = ignore (Engine.schedule e ~after:period (fun () -> arm period)) in
  for i = 0 to timers - 1 do
    arm (0.25 *. float_of_int (1 + (i mod 4)))
  done;
  timed t "engine" (fun () ->
      for _ = 1 to events do
        ignore (Engine.step e)
      done);
  addi t "engine_events" events

(* Request/timeout pairs: every request arms a timeout that its reply
   cancels before it fires, as guards, bookings and code fetches do. *)
let cancel t ~pairs =
  let e = Engine.create () in
  timed t "cancel" (fun () ->
      for i = 1 to pairs do
        let timeout = Engine.schedule e ~after:30.0 (fun () -> ()) in
        ignore
          (Engine.schedule e ~after:(0.001 *. float_of_int (i mod 13)) (fun () ->
               Engine.cancel timeout))
      done;
      Engine.run e);
  addi t "cancel_pairs" pairs

(* Messages between seed-drawn site pairs of [topo], sent and delivered. *)
let send t ~topo ~msgs ~size ~seed =
  let net = Net.create topo in
  let delivered = ref 0 in
  List.iter
    (fun s -> Net.set_handler net s ~key:"probe" (fun _ -> incr delivered))
    (Net.sites net);
  let n = Topology.site_count topo in
  let rng = Rng.create (Int64.of_int seed) in
  let pairs = Array.init msgs (fun _ -> (Rng.int rng n, Rng.int rng n)) in
  timed t "send" (fun () ->
      Array.iter
        (fun (src, dst) -> Net.send net ~src ~dst ~size (Netsim.Message.Ping "probe"))
        pairs;
      Net.run net);
  if !delivered <> msgs then failwith "send probe: a message was not delivered";
  addi t "send_msgs" msgs

(* Serialise and deserialise each briefcase; bytes are wire bytes. *)
let codec t bcs =
  let bytes = ref 0 in
  timed t "codec" (fun () ->
      List.iter
        (fun bc ->
          let wire = Briefcase.serialize bc in
          bytes := !bytes + String.length wire;
          ignore (Briefcase.deserialize wire))
        bcs);
  addi t "codec_bytes" !bytes

(* The code-cache digest of each CODE folder, then one HMAC per bill-sized
   payload (the mint's signature format). *)
let sha256 t ~codes ~bills =
  let payloads =
    List.init bills (fun i -> Printf.sprintf "ecu|%d|%032x" (100 + i) (i * 2654435761))
  in
  timed t "sha256" (fun () ->
      List.iter (fun code -> ignore (Codecache.digest [ code ])) codes;
      List.iter (fun p -> ignore (Sha256.hmac_hex ~key:"perfbench-mint" p)) payloads);
  addi t "sha256_bytes"
    (List.fold_left (fun a c -> a + Codecache.wire_bytes [ c ]) 0 codes
    + List.fold_left (fun a p -> a + String.length p) 0 payloads)

(* Broker lookups over one provider per capacity, registered on a star. *)
let lookup t ~capacities ~lookups =
  let m = List.length capacities in
  let k = Kernel.create (Net.create (Topology.star m)) in
  let b = Broker.Matchmaker.install k ~site:0 ~name:"broker" () in
  List.iteri
    (fun i capacity ->
      Broker.Matchmaker.register_provider b
        (Broker.Provider.install k ~site:(i + 1)
           ~name:(Printf.sprintf "prov-%d" i)
           ~service:"compute" ~capacity ()))
    capacities;
  timed t "lookup" (fun () ->
      for _ = 1 to lookups do
        if Broker.Matchmaker.lookup b ~service:"compute" () = None then
          failwith "lookup probe: no provider"
      done);
  addi t "lookups" lookups
