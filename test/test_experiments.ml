(* Shape tests for the experiment suite: each experiment's headline claim
   from the paper must hold on reduced-size runs, so a regression in any
   substrate that would flip a conclusion fails CI. *)

module E1 = Experiments.E1_bandwidth
module E2 = Experiments.E2_flooding
module E3 = Experiments.E3_folders
module E4 = Experiments.E4_cash
module E5 = Experiments.E5_broker
module E6 = Experiments.E6_guards
module E7 = Experiments.E7_transports
module E8 = Experiments.E8_apps
module E9 = Experiments.E9_codecache
module E10 = Experiments.E10_chaos

let check = Alcotest.check

let test_e1_shape () =
  let rows =
    E1.run
      ~params:
        { records = 400; record_bytes = 100; hops = 3; selectivities = [ 0.01; 0.5; 1.0 ] }
      ()
  in
  match rows with
  | [ low; mid; full ] ->
    Alcotest.(check bool) "agent wins big at 1%" true (low.E1.ratio > 10.0);
    Alcotest.(check bool) "agent still wins at 50%" true (mid.E1.ratio > 1.0);
    Alcotest.(check bool) "agent loses at 100% (code overhead)" true (full.E1.ratio < 1.05);
    Alcotest.(check bool) "monotone" true (low.E1.ratio > mid.E1.ratio && mid.E1.ratio > full.E1.ratio)
  | _ -> Alcotest.fail "unexpected row count"

let test_e1_wan_shape () =
  let rows = E1.run_wan ~selectivities:[ 0.01; 0.5 ] () in
  match rows with
  | [ low; mid ] ->
    Alcotest.(check bool) "agent much faster over the WAN at 1%" true
      (low.E1.agent_time *. 4.0 < low.E1.cs_time);
    Alcotest.(check bool) "still faster at 50%" true (mid.E1.agent_time < mid.E1.cs_time);
    Alcotest.(check bool) "byte ratio consistent with LAN run" true (low.E1.ratio > 10.0)
  | _ -> Alcotest.fail "unexpected row count"

let test_e2_shape () =
  let rows = E2.run () in
  List.iter
    (fun (r : E2.row) -> check Alcotest.int (r.E2.topology ^ " full coverage") r.E2.sites r.E2.coverage)
    rows;
  (* pair up naive/diffusion per topology *)
  let naive = List.filter (fun r -> r.E2.method_ = "naive") rows in
  let diff = List.filter (fun r -> r.E2.method_ = "diffusion") rows in
  List.iter2
    (fun (n : E2.row) (d : E2.row) ->
      check Alcotest.string "same topology" n.E2.topology d.E2.topology;
      check Alcotest.int "diffusion executes once per site" d.E2.sites d.E2.executions;
      Alcotest.(check bool) "naive explodes" true (n.E2.executions > 3 * d.E2.executions);
      Alcotest.(check bool) "naive moves more bytes" true (n.E2.byte_hops > d.E2.byte_hops))
    naive diff

let test_e3_shape () =
  let rows = E3.run ~sizes:[ 512; 4096 ] () in
  match rows with
  | [ small; large ] ->
    Alcotest.(check bool) "cabinet lookups beat folder scans" true
      (small.E3.lookup_speedup > 2.0);
    Alcotest.(check bool) "speedup grows with n" true
      (large.E3.lookup_speedup > small.E3.lookup_speedup);
    Alcotest.(check bool) "cabinets cost more to move (small)" true (small.E3.move_penalty > 1.0);
    Alcotest.(check bool) "cabinets cost more to move (large)" true (large.E3.move_penalty > 1.0)
  | _ -> Alcotest.fail "unexpected row count"

let test_e4a_shape () =
  let rows = E4.run_a ~purchases:200 ~attack_rates:[ 0.0; 0.2 ] () in
  match rows with
  | [ clean; attacked ] ->
    check Alcotest.int "no losses without attacks" 0 clean.E4.naive_loss;
    check Alcotest.int "validator never loses" 0 attacked.E4.validating_loss;
    Alcotest.(check bool) "naive merchant bleeds" true (attacked.E4.naive_loss > 0);
    Alcotest.(check bool) "every attack detected" true
      (attacked.E4.detected * 100 = attacked.E4.naive_loss)
  | _ -> Alcotest.fail "unexpected row count"

let test_e4b_shape () =
  let rows = E4.run_b ~trials:3 () in
  List.iter
    (fun (r : E4.row_b) ->
      check Alcotest.int
        (Printf.sprintf "court always right (%s/%s)" r.E4.customer r.E4.merchant)
        r.E4.trials r.E4.correct_verdicts)
    rows

let test_e4c_shape () =
  let rows = E4.run_c ~fuel_levels:[ 0; 10; 50 ] () in
  let damages = List.map (fun r -> r.E4.damage) rows in
  (match damages with
  | [ d0; d10; d50 ] ->
    Alcotest.(check bool) "damage grows with fuel" true (d0 < d10 && d10 < d50);
    (* proportionality: 5x the extra fuel, about 5x the extra damage *)
    let extra10 = d10 - d0 and extra50 = d50 - d0 in
    Alcotest.(check bool) "roughly linear" true
      (float_of_int extra50 /. float_of_int extra10 > 4.0
      && float_of_int extra50 /. float_of_int extra10 < 6.0)
  | _ -> Alcotest.fail "unexpected row count");
  List.iter
    (fun (r : E4.row_c) ->
      Alcotest.(check bool) "runaway never survives" false r.E4.survived)
    rows

let test_e5_shape () =
  let params =
    {
      E5.providers = [ 4.0; 2.0; 1.0; 1.0 ];
      jobs = 80;
      mean_interarrival = 0.3;
      work_per_job = 2.0;
      report_period = 0.25;
    }
  in
  let rows = E5.run ~params () in
  let find name = List.find (fun r -> r.E5.policy = name) rows in
  let random = find "random" and ll = find "least-loaded" in
  check Alcotest.int "all jobs complete (random)" 80 random.E5.jobs;
  check Alcotest.int "all jobs complete (ll)" 80 ll.E5.jobs;
  Alcotest.(check bool) "load-awareness wins on response time" true
    (ll.E5.mean_response < random.E5.mean_response);
  Alcotest.(check bool) "and on makespan" true (ll.E5.makespan <= random.E5.makespan)

let test_e6_shape () =
  let params =
    {
      E6.trials = 8;
      lambdas = [ 0.0; 0.02 ];
      work_per_hop = 1.0;
      mean_downtime = 8.0;
      horizon = 400.0;
    }
  in
  let rows = E6.run ~params () in
  List.iter
    (fun (r : E6.row) ->
      if r.E6.lambda = 0.0 then begin
        check Alcotest.int (r.E6.shape ^ " guarded all done") r.E6.trials r.E6.guarded_completed;
        check Alcotest.int (r.E6.shape ^ " unguarded all done") r.E6.trials
          r.E6.unguarded_completed
      end
      else begin
        Alcotest.(check bool)
          (r.E6.shape ^ " guards never lose to unguarded")
          true
          (r.E6.guarded_completed >= r.E6.unguarded_completed);
        Alcotest.(check bool) (r.E6.shape ^ " guards help somewhere") true
          (r.E6.guarded_completed > 0)
      end)
    rows;
  (* across all shapes at the high crash rate, guards must strictly win *)
  let high = List.filter (fun r -> r.E6.lambda > 0.0) rows in
  let g = List.fold_left (fun a r -> a + r.E6.guarded_completed) 0 high in
  let u = List.fold_left (fun a r -> a + r.E6.unguarded_completed) 0 high in
  Alcotest.(check bool) "guards strictly better overall" true (g > u)

let test_e7_shape () =
  let cost = E7.run_cost ~hops:3 ~payloads:[ 1024 ] () in
  let find name = List.find (fun r -> r.E7.transport = name) cost in
  let rsh = find "rsh" and tcp = find "tcp" and horus = find "horus" in
  Alcotest.(check bool) "rsh slowest" true
    (rsh.E7.journey_time > tcp.E7.journey_time && rsh.E7.journey_time > horus.E7.journey_time);
  Alcotest.(check bool) "rsh heaviest" true (rsh.E7.bytes > horus.E7.bytes);
  Alcotest.(check bool) "horus heavier than tcp" true (horus.E7.bytes > tcp.E7.bytes);
  let rel = E7.run_reliability ~trials:4 () in
  let findr name = List.find (fun r -> r.E7.r_transport = name) rel in
  check Alcotest.int "horus always delivers" 4 (findr "horus").E7.delivered;
  check Alcotest.int "tcp loses all" 0 (findr "tcp").E7.delivered;
  check Alcotest.int "rsh loses all" 0 (findr "rsh").E7.delivered

let test_e7c_shape () =
  let rows = E7.run_loss ~agents:30 ~loss_rates:[ 0.0; 0.3 ] () in
  let find tr p =
    List.find (fun r -> r.E7.l_transport = tr && r.E7.loss_rate = p) rows
  in
  check Alcotest.int "horus full delivery at 0" 30 (find "horus" 0.0).E7.arrived;
  check Alcotest.int "horus full delivery at 0.3" 30 (find "horus" 0.3).E7.arrived;
  Alcotest.(check bool) "tcp decays under loss" true ((find "tcp" 0.3).E7.arrived < 30);
  Alcotest.(check bool) "horus pays more bytes under loss" true
    ((find "horus" 0.3).E7.extra_bytes > (find "horus" 0.0).E7.extra_bytes)

let test_e8_shape () =
  let rows = E8.run_stormcast ~stations:5 ~hours:48 () in
  match rows with
  | [ agent; cs ] ->
    check Alcotest.string "agent row" "agent" agent.E8.architecture;
    Alcotest.(check bool) "identical accuracy" true
      (agent.E8.hit_rate = cs.E8.hit_rate
      && agent.E8.false_alarm_rate = cs.E8.false_alarm_rate);
    Alcotest.(check bool) "agent moves fewer bytes" true (agent.E8.bytes_moved < cs.E8.bytes_moved);
    Alcotest.(check bool) "agent moves far fewer readings" true
      (agent.E8.readings_moved * 4 < cs.E8.readings_moved)
  | _ -> Alcotest.fail "unexpected row count"

let test_e8c_shape () =
  let rows = E8.run_latency ~stations:5 ~hours:48 () in
  let find name = List.find (fun r -> r.E8.l_architecture = name) rows in
  let push = find "resident monitors (push)" in
  let tour = find "roaming collector (tour)" in
  check Alcotest.int "same detections" tour.E8.detections push.E8.detections;
  Alcotest.(check bool) "push detects orders of magnitude faster" true
    (push.E8.mean_detection_latency *. 100.0 < tour.E8.mean_detection_latency);
  Alcotest.(check bool) "both detected something" true (push.E8.detections > 0)

let test_e9_shape () =
  let rows = E9.run () in
  let find shape transport cached =
    List.find
      (fun r -> r.E9.shape = shape && r.E9.transport = transport && r.E9.cached = cached)
      rows
  in
  List.iter
    (fun transport ->
      let cold = find "revisit-4x3" transport false in
      let warm = find "revisit-4x3" transport true in
      Alcotest.(check bool)
        (transport ^ " warm revisits ship fewer bytes per hop")
        true
        (warm.E9.bytes_per_hop < cold.E9.bytes_per_hop);
      Alcotest.(check bool)
        (transport ^ " warm laps hit the cache")
        true (warm.E9.hits > warm.E9.misses);
      check Alcotest.int (transport ^ " cold runs never touch the cache") 0
        (cold.E9.hits + cold.E9.misses))
    [ "rsh"; "tcp"; "horus" ];
  (* all-first-visit ring: hits stay rare, fetches do the resolving *)
  let ring_warm = find "ring-8" "tcp" true in
  Alcotest.(check bool) "first visits miss" true (ring_warm.E9.misses >= ring_warm.E9.hits)

let test_e10_shape () =
  (* calm vs stormy cell: guards must not lose availability as partitions
     arrive, while the unguarded baseline must pay for them *)
  let rows = E10.run ~params:{ E10.seeds = 4; rates = [ 0.0; 0.05 ] } () in
  let calm = List.find (fun r -> r.E10.partition_rate = 0.0) rows in
  let stormy = List.find (fun r -> r.E10.partition_rate = 0.05) rows in
  Alcotest.(check bool) "guarded stays available under partitions" true
    (stormy.E10.guarded_frac >= 0.85);
  Alcotest.(check bool) "unguarded degrades" true
    (stormy.E10.unguarded_frac < calm.E10.unguarded_frac);
  Alcotest.(check bool) "guards beat the baseline when it matters" true
    (stormy.E10.guarded_frac > stormy.E10.unguarded_frac);
  Alcotest.(check bool) "availability is bought with relaunches" true
    (stormy.E10.mean_relaunches > calm.E10.mean_relaunches)

let test_registry_complete () =
  check Alcotest.int "ten experiments + ablations" 11 (List.length Experiments.Registry.all);
  List.iteri
    (fun i e ->
      if i < 10 then
        check Alcotest.string "ids in order" (Printf.sprintf "e%d" (i + 1))
          e.Experiments.Registry.id)
    Experiments.Registry.all;
  Alcotest.(check bool) "find works" true (Experiments.Registry.find "e4" <> None);
  Alcotest.(check bool) "find case-insensitive" true (Experiments.Registry.find "E4" <> None);
  Alcotest.(check bool) "unknown id" true (Experiments.Registry.find "e99" = None)

let test_ablation_a1_shape () =
  (* staler load reports, slower least-loaded responses *)
  let rows = Experiments.Ablations.run_a1 () in
  check Alcotest.(list string) "periods" [ "0.1s"; "0.5s"; "2s"; "8s"; "once" ]
    (List.map (fun r -> r.Experiments.Ablations.period) rows);
  let means = List.map (fun r -> r.Experiments.Ablations.mean_response) rows in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "mean response strictly increases with staleness" true
    (increasing means)

let test_ablation_a4_shape () =
  (* more shipped code, smaller advantage *)
  let rows = Experiments.Ablations.run_a4 () in
  let ratios = List.map (fun r -> r.Experiments.Ablations.ratio) rows in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "ratio strictly decreases with code size" true (decreasing ratios);
  Alcotest.(check bool) "still >1 at 16KB of code" true (List.nth ratios 3 > 1.0)

let test_ablation_a2_shape () =
  (* durable guards survive the guard-site crashes that strand non-durable
     ones; a more patient guard relaunches less *)
  let rows = Experiments.Ablations.run_a2 () in
  let timeouts = [ 2.0; 4.0; 8.0; 16.0 ] in
  let row ~ack ~durable =
    List.find
      (fun (r : Experiments.Ablations.a2_row) -> r.ack_timeout = ack && r.durable = durable)
      rows
  in
  List.iter
    (fun ack ->
      let d = row ~ack ~durable:true and n = row ~ack ~durable:false in
      Alcotest.(check bool)
        (Printf.sprintf "durable completes no fewer at ack timeout %g" ack)
        true
        (d.Experiments.Ablations.completed >= n.Experiments.Ablations.completed))
    timeouts;
  let relaunches =
    List.map (fun ack -> (row ~ack ~durable:false).Experiments.Ablations.relaunches) timeouts
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "non-durable relaunches/trial strictly fall with patience" true
    (decreasing relaunches)

let test_ablation_a3_shape () =
  let rows = Experiments.Ablations.run_a3 () in
  let on = List.find (fun r -> r.Experiments.Ablations.group_on) rows in
  let off = List.find (fun r -> not r.Experiments.Ablations.group_on) rows in
  Alcotest.(check bool) "group costs background bytes" true
    (on.Experiments.Ablations.idle_bytes_per_s > 100.0
    && off.Experiments.Ablations.idle_bytes_per_s = 0.0);
  (* both latencies come from the traced horus give-up drop: a missing event
     reads nan and fails both checks *)
  Alcotest.(check bool) "without the group, retries run out slowly (> 10 s)" true
    (off.Experiments.Ablations.abort_latency > 10.0);
  Alcotest.(check bool) "with the group, the dead site is abandoned in < 1 s" true
    (on.Experiments.Ablations.abort_latency < 1.0)

let test_ablation_a5_shape () =
  let rows = Experiments.Ablations.run_a5 ~chain_lengths:[ 0; 2; 4 ] () in
  List.iter
    (fun (r : Experiments.Ablations.a5_row) ->
      check Alcotest.int "hops equal overlay distance" r.Experiments.Ablations.chain_length
        r.Experiments.Ablations.broker_hops)
    rows;
  let lats = List.map (fun r -> r.Experiments.Ablations.lookup_latency) rows in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "latency grows with distance" true (increasing lats)

let test_e10_rows_identical_across_jobs () =
  (* the rate x guards x seed grid is flattened into one pool; regrouping
     must reproduce the serial rows exactly, floats and all *)
  let params = { E10.seeds = 2; rates = [ 0.0; 0.05 ] } in
  let serial = E10.run ~params ~jobs:1 () in
  let parallel = E10.run ~params ~jobs:4 () in
  Alcotest.(check bool) "grid fan-out reproduces serial rows" true (serial = parallel)

let test_registry_run_byte_identical_across_jobs () =
  (* parallel table regeneration must reproduce the serial byte stream:
     each task prints into a private buffer and buffers are emitted in
     entry order.  E3 is deliberately outside this check: its table reports
     host wall-clock times (Sys.time), which differ between any two runs,
     serial or parallel — the byte-identity contract covers
     simulation-derived output only. *)
  let entries = List.filter_map Experiments.Registry.find [ "e2"; "e4" ] in
  check Alcotest.int "both entries found" 2 (List.length entries);
  let render jobs =
    let buf = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buf in
    Experiments.Registry.run ~jobs entries fmt;
    Format.pp_print_flush fmt ();
    Buffer.contents buf
  in
  let serial = render 1 in
  Alcotest.(check bool) "tables nonempty" true (String.length serial > 0);
  check Alcotest.string "jobs=4 matches jobs=1" serial (render 4)

let () =
  Alcotest.run "experiments"
    [
      ( "shapes",
        [
          Alcotest.test_case "e1 bandwidth" `Slow test_e1_shape;
          Alcotest.test_case "e1 wan" `Slow test_e1_wan_shape;
          Alcotest.test_case "e2 flooding" `Slow test_e2_shape;
          Alcotest.test_case "e3 folders" `Slow test_e3_shape;
          Alcotest.test_case "e4a validation" `Quick test_e4a_shape;
          Alcotest.test_case "e4b court" `Slow test_e4b_shape;
          Alcotest.test_case "e4c fuel" `Quick test_e4c_shape;
          Alcotest.test_case "e5 broker" `Slow test_e5_shape;
          Alcotest.test_case "e6 guards" `Slow test_e6_shape;
          Alcotest.test_case "e7 transports" `Slow test_e7_shape;
          Alcotest.test_case "e7c lossy links" `Slow test_e7c_shape;
          Alcotest.test_case "e8 stormcast" `Slow test_e8_shape;
          Alcotest.test_case "e8c detection latency" `Slow test_e8c_shape;
          Alcotest.test_case "e9 code cache" `Slow test_e9_shape;
          Alcotest.test_case "e10 chaos availability" `Slow test_e10_shape;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "a1 report staleness" `Slow test_ablation_a1_shape;
          Alcotest.test_case "a2 guard patience" `Slow test_ablation_a2_shape;
          Alcotest.test_case "a3 horus group" `Slow test_ablation_a3_shape;
          Alcotest.test_case "a4 code size" `Slow test_ablation_a4_shape;
          Alcotest.test_case "a5 routed lookup" `Quick test_ablation_a5_shape;
        ] );
      ("registry", [ Alcotest.test_case "complete" `Quick test_registry_complete ]);
      ( "determinism",
        [
          Alcotest.test_case "e10 rows across jobs" `Slow
            test_e10_rows_identical_across_jobs;
          Alcotest.test_case "registry tables across jobs" `Slow
            test_registry_run_byte_identical_across_jobs;
        ] );
    ]
