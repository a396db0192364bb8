module Rng = Tacoma_util.Rng

type site_state = {
  mutable up : bool;
  mutable handlers : (string * (Message.t -> unit)) list;
  mutable crash_hooks : (unit -> unit) list;
  mutable restart_hooks : (unit -> unit) list;
}

(* One topology link, resolved at [create] and shared by the adjacency
   arrays of both its ends: every per-hop step reads this record. *)
type link = {
  lo : int;
  hi : int; (* endpoints, lo < hi *)
  base : Topology.link;
  mutable latency : float; (* base latency and bandwidth, scaled by a *)
  mutable bandwidth : float; (* chaos degradation window *)
  mutable degrade : (float * float) option;
  mutable enabled : bool;
  mutable loss : float option; (* chaos: extra per-link loss *)
  mutable busy_until : float; (* FIFO serialisation *)
  bytes : int ref Lazy.t; (* net.link.bytes and net.link.wait_s, resolved *)
  wait : Obs.Hist.t Lazy.t; (* on first traffic so dumps list only used links *)
}

type t = {
  engine : Engine.t;
  topo : Topology.t;
  rng : Rng.t;
  loss_rng : Rng.t;
  loss_rate : float;
  stats : Netstats.t;
  recorder : Obs.Tracer.t;
  metrics : Obs.Metrics.t;
  site_states : site_state array;
  adj : link array array; (* per site, in [Topology.neighbors] order *)
  mutable disabled : int; (* links with [enabled = false] *)
  mutable lossy : int; (* links with a [loss] *)
  mutable loss_override : float option; (* chaos: window replacing loss_rate *)
  routes : (float * int list) option array option array;
      (* src -> per-dst delay/path; emptied on any reachability change *)
  sent : int ref Lazy.t;
  delivered : int ref Lazy.t;
  msg_hops : Obs.Hist.t Lazy.t;
  delivery_latency : Obs.Hist.t Lazy.t;
}

let other l u = if l.lo = u then l.hi else l.lo

let find_link adj a b =
  let ls = if a >= 0 && a < Array.length adj then adj.(a) else [||] in
  let rec go i =
    if i = Array.length ls then None else if other ls.(i) a = b then Some ls.(i) else go (i + 1)
  in
  go 0

(* Sites in increasing order: a link to a smaller site already sits in that
   site's array, so both ends share one record. *)
let resolve_links topo metrics n =
  let adj = Array.make n [||] in
  let make a b =
    let base = Option.get (Topology.link topo a b) in
    let labels () = [ ("link", Netstats.link_label a b) ] in
    {
      lo = min a b;
      hi = max a b;
      base;
      latency = base.latency;
      bandwidth = base.bandwidth;
      degrade = None;
      enabled = true;
      loss = None;
      busy_until = 0.0;
      bytes = lazy (Obs.Metrics.counter_cell metrics ~labels:(labels ()) "net.link.bytes");
      wait = lazy (Obs.Metrics.hist metrics ~labels:(labels ()) "net.link.wait_s");
    }
  in
  for u = 0 to n - 1 do
    adj.(u) <-
      Array.of_list
        (List.map
           (fun v -> if v < u then Option.get (find_link adj v u) else make u v)
           (Topology.neighbors topo u))
  done;
  adj

let create ?(seed = 42L) ?(trace = false) ?(loss_rate = 0.0) topo =
  if loss_rate < 0.0 || loss_rate >= 1.0 then invalid_arg "Net.create: loss_rate must be in [0,1)";
  let n = Topology.site_count topo in
  let rng = Rng.create seed in
  let metrics = Obs.Metrics.create () in
  {
    engine = Engine.create ~metrics ();
    topo;
    loss_rng = Rng.split rng;
    loss_rate;
    rng;
    stats = Netstats.create metrics;
    recorder = Obs.Tracer.create ~enabled:trace ();
    metrics;
    site_states =
      Array.init n (fun _ ->
          { up = true; handlers = []; crash_hooks = []; restart_hooks = [] });
    adj = resolve_links topo metrics n;
    disabled = 0;
    lossy = 0;
    loss_override = None;
    routes = Array.make n None;
    sent = lazy (Obs.Metrics.counter_cell metrics "net.sent");
    delivered = lazy (Obs.Metrics.counter_cell metrics "net.delivered");
    msg_hops = lazy (Obs.Metrics.hist metrics "net.msg_hops");
    delivery_latency = lazy (Obs.Metrics.hist metrics "net.delivery_latency_s");
  }

let engine t = t.engine
let topology t = t.topo
let now t = Engine.now t.engine
let rng t = t.rng
let stats t = t.stats
let recorder t = t.recorder
let metrics t = t.metrics
let sites t = Topology.sites t.topo
let neighbors t s = Topology.neighbors t.topo s

let state t s =
  if s < 0 || s >= Array.length t.site_states then invalid_arg "Net: unknown site";
  t.site_states.(s)

let set_handler t s ~key h =
  let st = state t s in
  st.handlers <- (key, h) :: List.remove_assoc key st.handlers

let clear_handler t s ~key =
  let st = state t s in
  st.handlers <- List.remove_assoc key st.handlers
let site_up t s = (state t s).up

(* Any reachability change invalidates every cached route at once. *)
let invalidate_routes t = Array.fill t.routes 0 (Array.length t.routes) None

let route_cache_size t =
  Array.fold_left (fun n r -> if Option.is_some r then n + 1 else n) 0 t.routes

let link_enabled t a b =
  match find_link t.adj a b with Some l -> l.enabled | None -> true

(* The link a route crosses from [a] to [b]: routes only follow links. *)
let link_on_route t a b =
  match find_link t.adj a b with Some l -> l | None -> assert false

(* Dijkstra over latency, skipping disabled links.  A down site may be
   reached (it can be a message destination — liveness is re-checked at
   delivery time so in-flight messages race with crashes as on a real
   network) but must not forward traffic: we never relax the edges of a
   down vertex other than the source. *)
let dijkstra t src =
  let n = Array.length t.adj in
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let visited = Array.make n false in
  dist.(src) <- 0.0;
  let heap = Tacoma_util.Heap.create ~cmp:(fun (a, _) (b, _) -> Float.compare a b) in
  Tacoma_util.Heap.push heap (0.0, src);
  let rec loop () =
    match Tacoma_util.Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
      if not visited.(u) then begin
        visited.(u) <- true;
        if (state t u).up || u = src then
          Array.iter
            (fun l ->
              if l.enabled then begin
                let v = other l u in
                let nd = d +. l.latency in
                if nd < dist.(v) then begin
                  dist.(v) <- nd;
                  prev.(v) <- u;
                  Tacoma_util.Heap.push heap (nd, v)
                end
              end)
            t.adj.(u)
      end;
      loop ()
  in
  loop ();
  let path_to dst =
    if dist.(dst) = infinity then None
    else begin
      let rec build acc v = if v = src then acc else build (v :: acc) prev.(v) in
      Some (dist.(dst), build [] dst)
    end
  in
  Array.init n path_to

let routes_from t src =
  match t.routes.(src) with
  | Some arr -> arr
  | None ->
    let arr = dijkstra t src in
    t.routes.(src) <- Some arr;
    arr

let route t src dst =
  if src = dst then Some []
  else match (routes_from t src).(dst) with None -> None | Some (_, path) -> Some path

let local_delivery_delay = 0.0001

let path_delay t ~size src path =
  (* idle-network bound: per link, latency + serialisation *)
  let rec go acc prev_site = function
    | [] -> acc
    | hop :: rest ->
      let l = link_on_route t prev_site hop in
      go (acc +. l.latency +. (float_of_int size /. l.bandwidth)) hop rest
  in
  go 0.0 src path

(* Store-and-forward with FIFO link contention: at each link the message
   first waits until the link has drained earlier traffic, occupies it for
   the serialisation time, then propagates for the latency.  Charges the
   bytes to every link, returns the absolute arrival time and updates the
   links' busy horizons. *)
let reserve_path t ~size src path =
  let rec go arrival prev_site = function
    | [] -> arrival
    | hop :: rest ->
      let l = link_on_route t prev_site hop in
      let bytes = Lazy.force l.bytes in
      bytes := !bytes + size;
      let start_tx = Float.max arrival l.busy_until in
      (* queue depth at this link, in seconds of backlog ahead of us *)
      Obs.Hist.observe (Lazy.force l.wait) (start_tx -. arrival);
      let tx_done = start_tx +. (float_of_int size /. l.bandwidth) in
      l.busy_until <- tx_done;
      go (tx_done +. l.latency) hop rest
  in
  go (Engine.now t.engine) src path

(* The probability that a message following [path] is lost.  With no chaos
   overrides this is exactly [loss_rate]; a global override window replaces
   it, and per-link elevations compound along the route (independent loss on
   every crossed link). *)
let path_loss_prob t src path =
  let base = match t.loss_override with Some r -> r | None -> t.loss_rate in
  if t.lossy = 0 then base
  else begin
    let rec go survive prev_site = function
      | [] -> 1.0 -. survive
      | hop :: rest ->
        let survive =
          match (link_on_route t prev_site hop).loss with
          | Some r -> survive *. (1.0 -. r)
          | None -> survive
        in
        go survive hop rest
    in
    go (1.0 -. base) src path
  end

(* When a route lookup fails, distinguish an administrative partition from
   genuine unreachability: rerun reachability ignoring disabled links (down
   sites still do not forward).  If the destination would be reachable, the
   drop is attributable to the partition. *)
let reachable_ignoring_partition t src dst =
  let visited = Array.make (Array.length t.adj) false in
  let q = Queue.create () in
  visited.(src) <- true;
  Queue.add src q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let u = Queue.take q in
    if u = dst then found := true
    else if (state t u).up || u = src then
      Array.iter
        (fun l ->
          let v = other l u in
          if not visited.(v) then begin
            visited.(v) <- true;
            Queue.add v q
          end)
        t.adj.(u)
  done;
  !found

let delivery_delay t src dst ~size =
  if src = dst then Some local_delivery_delay
  else
    match route t src dst with
    | None -> None
    | Some path -> Some (path_delay t ~size src path)

(* the message of a traced drop *)
let drop_note what src dst size =
  what ^ " site-" ^ string_of_int src ^ " -> site-" ^ string_of_int dst ^ " ("
  ^ string_of_int size ^ " bytes)"

let deliver t (msg : Message.t) =
  let st = state t msg.dst in
  let tr = recorder t in
  if st.up then begin
    Netstats.record_delivery t.stats;
    incr (Lazy.force t.delivered);
    Obs.Hist.observe (Lazy.force t.delivery_latency) (now t -. msg.sent_at);
    if Obs.Tracer.enabled tr then
      Obs.Tracer.instant tr ~time:(now t) ~cat:"net" ~site:msg.dst
        ~attrs:
          [
            ("src", Obs.Event.I msg.src);
            ("bytes", Obs.Event.I msg.size);
            ("latency", Obs.Event.F (now t -. msg.sent_at));
          ]
        "net.deliver";
    List.iter (fun (_, h) -> h msg) (List.rev st.handlers)
  end
  else begin
    Netstats.record_drop t.stats;
    Obs.Metrics.incr t.metrics ~labels:[ ("reason", "site-down") ] "net.drops";
    if Obs.Tracer.enabled tr then
      Obs.Tracer.instant tr ~time:(now t) ~cat:"net" ~site:msg.dst
        ~msg:
          ("site-" ^ string_of_int msg.dst ^ " down, dropped " ^ string_of_int msg.size
         ^ " bytes from site-" ^ string_of_int msg.src)
        ~attrs:[ ("reason", Obs.Event.S "site-down") ]
        "net.drop"
  end

let send t ~src ~dst ~size payload =
  if size < 0 then invalid_arg "Net.send: negative size";
  let tr = recorder t in
  if site_up t src then begin
    if src = dst then begin
      Netstats.record_send t.stats ~bytes:size ~hops:0;
      incr (Lazy.force t.sent);
      let msg =
        { Message.src; dst; size; payload; sent_at = now t; hops = 0 }
      in
      ignore (Engine.schedule t.engine ~after:local_delivery_delay (fun () -> deliver t msg))
    end
    else
      match route t src dst with
      | None ->
        let reason =
          if t.disabled > 0 && reachable_ignoring_partition t src dst then
            "partition"
          else "no-route"
        in
        Netstats.record_drop t.stats;
        Obs.Metrics.incr t.metrics ~labels:[ ("reason", reason) ] "net.drops";
        if Obs.Tracer.enabled tr then
          Obs.Tracer.instant tr ~time:(now t) ~cat:"net" ~site:src
            ~msg:(drop_note reason src dst size)
            ~attrs:[ ("reason", Obs.Event.S reason); ("dst", Obs.Event.I dst) ]
            "net.drop"
      | Some path ->
        let hops = List.length path in
        Netstats.record_send t.stats ~bytes:size ~hops;
        incr (Lazy.force t.sent);
        Obs.Hist.observe (Lazy.force t.msg_hops) (float_of_int hops);
        if Obs.Tracer.enabled tr then
          Obs.Tracer.instant tr ~time:(now t) ~cat:"net" ~site:src
            ~attrs:
              [
                ("dst", Obs.Event.I dst);
                ("bytes", Obs.Event.I size);
                ("hops", Obs.Event.I hops);
              ]
            "net.send";
        let arrival = reserve_path t ~size src path in
        let loss_prob = path_loss_prob t src path in
        if loss_prob > 0.0 && Rng.float t.loss_rng < loss_prob then begin
          (* lost in transit: the bytes were spent, nothing arrives *)
          ignore
            (Engine.schedule_at t.engine ~at:arrival (fun () ->
                 Netstats.record_drop t.stats;
                 Obs.Metrics.incr t.metrics ~labels:[ ("reason", "loss") ] "net.drops";
                 if Obs.Tracer.enabled tr then
                   Obs.Tracer.instant tr ~time:(now t) ~cat:"net" ~site:src
                     ~msg:(drop_note "lost in transit" src dst size)
                     ~attrs:[ ("reason", Obs.Event.S "loss"); ("dst", Obs.Event.I dst) ]
                     "net.drop"))
        end
        else begin
          let msg = { Message.src; dst; size; payload; sent_at = now t; hops } in
          ignore (Engine.schedule_at t.engine ~at:arrival (fun () -> deliver t msg))
        end
  end

let crash t s =
  let st = state t s in
  if st.up then begin
    st.up <- false;
    st.handlers <- [];
    invalidate_routes t;
    Obs.Metrics.incr t.metrics "net.crashes";
    if Obs.Tracer.enabled t.recorder then
      Obs.Tracer.instant t.recorder ~time:(now t) ~cat:"net" ~msg:(Printf.sprintf "site-%d" s)
        "net.crash";
    List.iter (fun hook -> hook ()) (List.rev st.crash_hooks)
  end

let restart t s =
  let st = state t s in
  if not st.up then begin
    st.up <- true;
    invalidate_routes t;
    Obs.Metrics.incr t.metrics "net.restarts";
    if Obs.Tracer.enabled t.recorder then
      Obs.Tracer.instant t.recorder ~time:(now t) ~cat:"net" ~msg:(Printf.sprintf "site-%d" s)
        "net.restart";
    List.iter (fun hook -> hook ()) (List.rev st.restart_hooks)
  end

let on_crash t s hook =
  let st = state t s in
  st.crash_hooks <- hook :: st.crash_hooks

let on_restart t s hook =
  let st = state t s in
  st.restart_hooks <- hook :: st.restart_hooks

let require_link t a b what =
  match find_link t.adj a b with Some l -> l | None -> invalid_arg (what ^ ": no such link")

let set_link_enabled t a b enabled =
  let l = require_link t a b "Net.set_link_enabled" in
  if l.enabled <> enabled then begin
    l.enabled <- enabled;
    t.disabled <- (t.disabled + if enabled then -1 else 1);
    invalidate_routes t
  end

let set_link_loss t a b rate =
  let l = require_link t a b "Net.set_link_loss" in
  (match rate with
  | Some r when r < 0.0 || r >= 1.0 -> invalid_arg "Net.set_link_loss: rate must be in [0,1)"
  | Some _ | None -> ());
  let count = function Some _ -> 1 | None -> 0 in
  t.lossy <- t.lossy + count rate - count l.loss;
  l.loss <- rate

let link_loss t a b = Option.bind (find_link t.adj a b) (fun l -> l.loss)

let set_loss_override t rate =
  (match rate with
  | Some r when r < 0.0 || r >= 1.0 ->
    invalid_arg "Net.set_loss_override: rate must be in [0,1)"
  | Some _ | None -> ());
  t.loss_override <- rate

let set_link_degraded t a b factors =
  let l = require_link t a b "Net.set_link_degraded" in
  let lm, bm = Option.value factors ~default:(1.0, 1.0) in
  if lm <= 0.0 || bm <= 0.0 then invalid_arg "Net.set_link_degraded: factors must be positive";
  l.degrade <- factors;
  (* exact when restored: x *. 1.0 = x *)
  l.latency <- l.base.latency *. lm;
  l.bandwidth <- l.base.bandwidth *. bm;
  (* degraded latency changes lowest-latency routes *)
  invalidate_routes t

let link_degraded t a b = Option.bind (find_link t.adj a b) (fun l -> l.degrade)

let run ?until ?stop t = Engine.run ?until ?stop t.engine
let schedule t ~after f = Engine.schedule t.engine ~after f

let crash_at t ~site ~at = ignore (Engine.schedule_at t.engine ~at (fun () -> crash t site))

let crash_for t ~site ~at ~downtime =
  crash_at t ~site ~at;
  ignore (Engine.schedule_at t.engine ~at:(at +. downtime) (fun () -> restart t site))
