(* script_tour: one TScript agent takes a depth-first census of a grid,
   carried from site to site by a native [carrier] agent that the benchmark
   owns.  At every hop the carrier runs the agent's code ([Kernel.run_code])
   and then moves it to the site the script chose ([Kernel.migrate]).
   Migration is restart-style, so CODE travels on every hop; the code cache
   is on, so revisits hit it and first visits miss.

   At each first visit the script summarises the site's READINGS with
   braced [expr]s (compiled once, then cache hits) and a data-built [expr]
   string per reading (distinct, so mostly misses), writes a cabinet note
   and appends to its RESULTS folder. *)

module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Folder = Tacoma_core.Folder
module Cabinet = Tacoma_core.Cabinet
module Net = Netsim.Net
module Engine = Netsim.Engine
module Netstats = Netsim.Netstats
module Topology = Netsim.Topology
module Metrics = Obs.Metrics
module Rng = Tacoma_util.Rng

let code =
  {|set here [host]
if {![folder contains SITES $here]} {
  folder put SITES $here
  set rs [cabinet list READINGS]
  set n 0
  set sum 0
  set lo [lindex $rs 0]
  set hi $lo
  set chk 0
  foreach r $rs {
    incr n
    set sum [expr {$sum + $r}]
    set lo [expr {min($lo, $r)}]
    set hi [expr {max($hi, $r)}]
    set chk [expr "($chk * 31 + $r * $n) % 1000003"]
  }
  set note "$n:$sum:$lo:$hi:$chk"
  cabinet kvset NOTES census $note
  folder put RESULTS "$here=$note"
}
set next {}
foreach nb [neighbors] {
  if {![folder contains SITES $nb]} {
    set next $nb
    break
  }
}
if {$next ne {}} {
  folder push PATH $here
  folder set NEXT $next
} elseif {[folder size PATH] > 0} {
  folder set NEXT [folder pop PATH]
} else {
  folder clear NEXT
}
|}

(* The benchmark's own summary of one site's readings: what the script
   must have written for it. *)
let summary readings =
  let n, sum, lo, hi, chk =
    List.fold_left
      (fun (n, sum, lo, hi, chk) r ->
        let n = n + 1 in
        (n, sum + r, min lo r, max hi r, ((chk * 31) + (r * n)) mod 1000003))
      (0, 0, max_int, min_int, 0) readings
  in
  Printf.sprintf "%d:%d:%d:%d:%d" n sum lo hi chk

type input = {
  rows : int;
  cols : int;
  origin : int;
  net_seed : int;
  readings : int list array;  (** per site *)
}

(* A 3x3 to 4x4 grid (9-16 sites), 8-24 readings per site. *)
let gen rng =
  let rows = 3 + Rng.int rng 2 and cols = 3 + Rng.int rng 2 in
  let n = rows * cols in
  {
    rows;
    cols;
    origin = Rng.int rng n;
    net_seed = Rng.int rng 1_000_000;
    readings =
      Array.init n (fun _ -> List.init (8 + Rng.int rng 17) (fun _ -> Rng.int rng 1000));
  }

type outcome = {
  kernel : Kernel.t;
  events : int;
  finish : (Netsim.Site.id * Briefcase.t) option;
      (** where the script ended, with its final briefcase *)
  hops : Briefcase.t list;  (** the briefcase as each hop shipped it *)
}

let config =
  {
    Kernel.default_config with
    default_transport = Kernel.Tcp;
    cache = Some Kernel.default_cache_config;
  }

let simulate sp inp =
  let net = Net.create ~seed:(Int64.of_int inp.net_seed) (Topology.grid inp.rows inp.cols) in
  let k = Kernel.create ~config net in
  Array.iteri
    (fun site rs ->
      Cabinet.replace (Kernel.cabinet k site) "READINGS" (List.map string_of_int rs))
    inp.readings;
  let finish = ref None and hops = ref [] in
  Kernel.register_native k "carrier" (fun ctx bc ->
      let code = Briefcase.get bc Briefcase.code_folder in
      Span.with_span sp "run_code" (fun () -> Kernel.run_code ctx ~code bc);
      match Briefcase.find_opt bc "NEXT" with
      | None -> finish := Some (ctx.Kernel.site, bc)
      | Some next ->
        let dst =
          match Kernel.site_named k next with
          | Some s -> s
          | None -> raise (Kernel.Agent_error ("carrier: unknown site " ^ next))
        in
        (* [migrate] ships a copy, so keeping [bc] for the codec probe
           costs nothing and sees exactly what was shipped *)
        if Span.enabled sp then hops := bc :: !hops;
        Span.with_span sp "migrate" (fun () ->
            Kernel.migrate k ~src:ctx.Kernel.site ~dst ~contact:"carrier"
              ~transport:Kernel.Tcp bc));
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.code_folder code;
  Kernel.launch k ~site:inp.origin ~contact:"carrier" bc;
  let engine = Net.engine net in
  let events = ref 0 in
  while Engine.step engine do
    incr events
  done;
  { kernel = k; events = !events; finish = !finish; hops = List.rev !hops }

(* Every site visited, exactly one RESULTS entry per site equal to the
   benchmark's own summary (and the same note in the site's cabinet), the
   agent back at its origin, and no kernel deaths. *)
let check inp o =
  let k = o.kernel in
  let expected =
    List.sort compare
      (List.init (Array.length inp.readings) (fun s ->
           Printf.sprintf "%s=%s" (Kernel.site_name k s) (summary inp.readings.(s))))
  in
  let notes_ok () =
    Array.for_all Fun.id
      (Array.mapi
         (fun s rs ->
           Cabinet.find_kv_opt (Kernel.cabinet k s) "NOTES" ~key:"census" = Some (summary rs))
         inp.readings)
  in
  Kernel.deaths k = 0
  &&
  match o.finish with
  | None -> false
  | Some (site, bc) ->
    site = inp.origin
    && List.sort compare (Folder.to_list (Briefcase.folder bc "RESULTS")) = expected
    && notes_ok ()

(* A wrong summary for the first site the agent reported on. *)
let tamper o =
  match o.finish with
  | None -> o
  | Some (site, bc) ->
    let bc = Briefcase.copy bc in
    let f = Briefcase.folder bc "RESULTS" in
    (match Folder.to_list f with
    | first :: rest -> Folder.replace f ((first ^ "0") :: rest)
    | [] -> ());
    { o with finish = Some (site, bc) }

let sweep ~jobs inputs =
  Tacoma_util.Pool.with_pool ~jobs (fun pool ->
      Tacoma_util.Pool.map pool (fun inp -> check inp (simulate Span.off inp)) inputs)

let observe (l : Layer.t) ~seed inp o =
  let net = Kernel.net o.kernel in
  let st = Net.stats net and m = Kernel.metrics o.kernel in
  Layer.addi l "events" o.events;
  Layer.addi l "msgs" (Netstats.messages_sent st);
  Layer.addi l "msgs_dropped" (Netstats.messages_dropped st);
  Layer.addi l "bytes" (Netstats.bytes_sent st);
  Layer.add l "steps"
    (Metrics.fold
       (fun ~name ~labels:_ v acc ->
         match v with
         | Metrics.Histogram h when name = "interp.steps" -> acc +. Obs.Hist.sum h
         | _ -> acc)
       m 0.0);
  List.iter
    (fun c -> Layer.addi l c (Metrics.counter_total m c))
    [
      "tscript.parse_cache.hit";
      "tscript.parse_cache.miss";
      "tscript.expr_cache.hit";
      "tscript.expr_cache.miss";
      "codecache.hits";
      "codecache.misses";
    ];
  let sites = Array.length inp.readings in
  Layer.engine l ~timers:sites ~events:(200 * sites);
  Layer.cancel l ~pairs:(50 * sites);
  Layer.send l ~topo:(Topology.grid inp.rows inp.cols) ~msgs:(20 * sites) ~size:1024 ~seed;
  Layer.codec l o.hops;
  Layer.sha256 l ~codes:(List.map (fun _ -> code) o.hops) ~bills:(List.length o.hops);
  Layer.lookup l ~capacities:(List.init sites (fun _ -> 1.0)) ~lookups:(10 * sites)

let warmup = 32
