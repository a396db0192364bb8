(* Tests for the paper's §6 applications: the client/server baseline RPC,
   synthetic weather + the StormCast expert system in both architectures,
   and the agent-based mail system. *)

module Rpc = Baseline.Rpc
module Weather = Apps.Weather
module Stormcast = Apps.Stormcast
module Agentmail = Apps.Agentmail
module Kernel = Tacoma_core.Kernel
module Cabinet = Tacoma_core.Cabinet
module Net = Netsim.Net
module Topology = Netsim.Topology
module Rng = Tacoma_util.Rng

let check = Alcotest.check

(* --- baseline rpc --- *)

let test_rpc_roundtrip () =
  let net = Net.create (Topology.line 3) in
  ignore
    (Rpc.serve net ~site:2 ~service:"echo" (fun ~query -> [ query; String.uppercase_ascii query ]));
  let got = ref None in
  let c = Rpc.client net ~src:0 in
  Rpc.call c ~dst:2 ~service:"echo" ~query:"hej" ~on_reply:(fun rows ->
      got := Some rows);
  Net.run net;
  check Alcotest.(option (list string)) "reply" (Some [ "hej"; "HEJ" ]) !got

let test_rpc_two_services_one_site () =
  let net = Net.create (Topology.line 2) in
  ignore (Rpc.serve net ~site:1 ~service:"a" (fun ~query:_ -> [ "from-a" ]));
  ignore (Rpc.serve net ~site:1 ~service:"b" (fun ~query:_ -> [ "from-b" ]));
  let got = ref [] in
  let c = Rpc.client net ~src:0 in
  Rpc.call c ~dst:1 ~service:"a" ~query:"" ~on_reply:(fun r -> got := r @ !got);
  Rpc.call c ~dst:1 ~service:"b" ~query:"" ~on_reply:(fun r -> got := r @ !got);
  Net.run net;
  check Alcotest.(list string) "both served" [ "from-a"; "from-b" ] (List.sort compare !got)

let test_rpc_bytes_accounted () =
  let net = Net.create (Topology.line 2) in
  let stats = Rpc.serve net ~site:1 ~service:"big" (fun ~query:_ -> [ String.make 5000 'x' ]) in
  Rpc.call (Rpc.client net ~src:0) ~dst:1 ~service:"big" ~query:"q" ~on_reply:(fun _ -> ());
  Net.run net;
  check Alcotest.int "requests" 1 stats.Rpc.requests;
  Alcotest.(check bool) "response bytes include data" true (stats.Rpc.response_bytes > 5000);
  Alcotest.(check bool) "network saw the bytes" true
    (Netsim.Netstats.bytes_sent (Net.stats net) > 5000)

let test_rpc_lost_on_down_server () =
  let net = Net.create (Topology.line 2) in
  ignore (Rpc.serve net ~site:1 ~service:"s" (fun ~query:_ -> []));
  Net.crash net 1;
  let got = ref false in
  Rpc.call (Rpc.client net ~src:0) ~dst:1 ~service:"s" ~query:"" ~on_reply:(fun _ -> got := true);
  Net.run net;
  Alcotest.(check bool) "no reply from crashed server" false !got

(* --- weather --- *)

let field () = Weather.generate ~rng:(Rng.create 11L) ~stations:6 ~hours:48 ()

let test_weather_deterministic () =
  let a = field () and b = field () in
  check Alcotest.(list (pair int int)) "same storms" a.Weather.storm_hours b.Weather.storm_hours;
  Alcotest.(check bool) "same readings" true (a.Weather.readings = b.Weather.readings)

let test_weather_wire_roundtrip () =
  let f = field () in
  Array.iter
    (fun station ->
      Array.iter
        (fun r ->
          match Weather.of_wire (Weather.wire r) with
          | Ok r' ->
            Alcotest.(check bool) "station/hour preserved" true
              (r.Weather.station = r'.Weather.station && r.Weather.hour = r'.Weather.hour)
          | Error e -> Alcotest.failf "roundtrip: %s" e)
        station)
    f.Weather.readings

let test_weather_storms_depress_pressure () =
  let f = field () in
  let storm_ps = ref [] and calm_ps = ref [] in
  Array.iter
    (fun station ->
      Array.iter
        (fun (r : Weather.reading) ->
          if Weather.is_storm_truth f ~station:r.Weather.station ~hour:r.Weather.hour then
            storm_ps := r.Weather.pressure_hpa :: !storm_ps
          else calm_ps := r.Weather.pressure_hpa :: !calm_ps)
        station)
    f.Weather.readings;
  Alcotest.(check bool) "some storm hours exist" true (!storm_ps <> []);
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  Alcotest.(check bool) "storms depress pressure" true (mean !storm_ps < mean !calm_ps -. 5.0)

(* --- stormcast --- *)

let stormcast_world () =
  let topo = Topology.star 6 in
  (* hub = prediction centre, spokes = sensors *)
  let net = Net.create topo in
  let k = Kernel.create net in
  let f = Weather.generate ~rng:(Rng.create 17L) ~stations:6 ~hours:48 ~storm_count:3 () in
  let sensors = [ 1; 2; 3; 4; 5; 6 ] in
  Stormcast.load_sensor_data k ~sites:sensors f;
  (net, k, f, sensors)

let test_agent_and_central_agree () =
  let net, k, f, sensors = stormcast_world () in
  let agent_out = ref None in
  Stormcast.run_agent_collector k ~sensor_sites:sensors ~centre:0 ~on_done:(fun o ->
      agent_out := Some o);
  Net.run ~until:120.0 net;
  let net2 = Net.create (Topology.star 6) in
  let cs_out = ref None in
  Stormcast.run_client_server net2 ~field:f ~sensor_sites:sensors ~centre:0
    ~on_done:(fun o -> cs_out := Some o);
  Net.run ~until:120.0 net2;
  match (!agent_out, !cs_out) with
  | Some a, Some c ->
    let norm o =
      List.sort compare
        (List.map (fun p -> (p.Stormcast.p_station, p.Stormcast.p_hour)) o.Stormcast.predictions)
    in
    check Alcotest.(list (pair int int)) "same predictions" (norm c) (norm a);
    Alcotest.(check bool) "agent moves fewer bytes" true (a.Stormcast.bytes_moved < c.Stormcast.bytes_moved);
    Alcotest.(check bool) "agent moves fewer readings" true
      (a.Stormcast.readings_moved < c.Stormcast.readings_moved)
  | _ -> Alcotest.fail "a run did not finish"

let test_predictions_catch_storms () =
  let net, k, f, sensors = stormcast_world () in
  let out = ref None in
  Stormcast.run_agent_collector k ~sensor_sites:sensors ~centre:0 ~on_done:(fun o ->
      out := Some o);
  Net.run ~until:120.0 net;
  match !out with
  | None -> Alcotest.fail "did not finish"
  | Some o ->
    let hit = ref 0.0 and fa = ref 0.0 in
    Stormcast.score f o.Stormcast.predictions ~hit_rate:hit ~false_alarm_rate:fa;
    Alcotest.(check bool) "hit rate decent" true (!hit > 0.5);
    Alcotest.(check bool) "false alarms bounded" true (!fa < 0.5)

let test_script_collector_matches_native () =
  (* the TScript collector is the native one transcribed; findings and
     predictions must be identical *)
  let run runner =
    let net, k, _, sensors = stormcast_world () in
    let out = ref None in
    runner k ~sensor_sites:sensors ~centre:0 ~on_done:(fun o -> out := Some o);
    Net.run ~until:300.0 net;
    Option.get !out
  in
  let native = run Stormcast.run_agent_collector in
  let script = run Stormcast.run_script_collector in
  let norm o =
    List.sort compare
      (List.map (fun p -> (p.Stormcast.p_station, p.Stormcast.p_hour)) o.Stormcast.predictions)
  in
  check Alcotest.(list (pair int int)) "same predictions" (norm native) (norm script);
  check Alcotest.int "same findings carried" native.Stormcast.readings_moved
    script.Stormcast.readings_moved;
  (* the script ships its own source each hop, so it costs a bit more *)
  Alcotest.(check bool) "script pays code shipping" true
    (script.Stormcast.bytes_moved > native.Stormcast.bytes_moved)

let test_monitor_agents_push () =
  let net, k, f, sensors = stormcast_world () in
  let finish =
    Stormcast.run_monitor_agents k ~field:f ~sensor_sites:sensors ~centre:0 ~hour_scale:1.0 ()
  in
  Net.run ~until:100.0 net;
  let out = finish () in
  (* every anomalous reading arrives, almost immediately *)
  let expected_alerts =
    Array.fold_left
      (fun acc station -> acc + Array.length (Array.of_list (List.filter Stormcast.anomalous (Array.to_list station))))
      0 f.Weather.readings
  in
  check Alcotest.int "every anomaly alerted" expected_alerts out.Stormcast.alerts;
  Alcotest.(check bool) "sub-second detection" true (out.Stormcast.mean_alert_latency < 0.1);
  Alcotest.(check bool) "alerts happened" true (out.Stormcast.alerts > 0);
  (* same anomalies as the collector sees -> same predictions *)
  let collector_out = ref None in
  let net2 = Net.create (Topology.star 6) in
  let k2 = Kernel.create net2 in
  Stormcast.load_sensor_data k2 ~sites:sensors f;
  Stormcast.run_agent_collector k2 ~sensor_sites:sensors ~centre:0 ~on_done:(fun o ->
      collector_out := Some o);
  Net.run ~until:100.0 net2;
  let norm ps =
    List.sort compare (List.map (fun p -> (p.Stormcast.p_station, p.Stormcast.p_hour)) ps)
  in
  check Alcotest.(list (pair int int)) "same predictions as collector"
    (norm (Option.get !collector_out).Stormcast.predictions)
    (norm out.Stormcast.push_predictions)

let test_quiet_field_no_predictions () =
  let topo = Topology.star 4 in
  let net = Net.create topo in
  let k = Kernel.create net in
  let f = Weather.generate ~rng:(Rng.create 5L) ~stations:4 ~hours:24 ~storm_count:0 () in
  let sensors = [ 1; 2; 3; 4 ] in
  Stormcast.load_sensor_data k ~sites:sensors f;
  let out = ref None in
  Stormcast.run_agent_collector k ~sensor_sites:sensors ~centre:0 ~on_done:(fun o ->
      out := Some o);
  Net.run ~until:120.0 net;
  match !out with
  | None -> Alcotest.fail "did not finish"
  | Some o -> check Alcotest.int "no storms predicted" 0 (List.length o.Stormcast.predictions)

(* --- agent mail --- *)

let mail_world () =
  let net = Net.create (Topology.full_mesh 4) in
  let k = Kernel.create net in
  Agentmail.setup k;
  Agentmail.register_user k ~user:"alice" ~home:0;
  Agentmail.register_user k ~user:"bob" ~home:1;
  Agentmail.register_user k ~user:"carol" ~home:2;
  (net, k)

let subjects msgs = List.map (fun m -> m.Agentmail.subject) msgs

let test_mail_delivery () =
  let net, k = mail_world () in
  Agentmail.send k ~src:0 ~from_user:"alice" ~to_user:"bob" ~subject:"hi" ~body:"hello bob";
  Net.run ~until:30.0 net;
  match Agentmail.mailbox k ~user:"bob" with
  | [ m ] ->
    check Alcotest.string "from" "alice" m.Agentmail.from_user;
    check Alcotest.string "subject" "hi" m.Agentmail.subject;
    check Alcotest.string "body" "hello bob" m.Agentmail.body
  | other -> Alcotest.failf "expected 1 message, got %d" (List.length other)

let test_mail_bounce () =
  let net, k = mail_world () in
  Agentmail.send k ~src:0 ~from_user:"alice" ~to_user:"nobody" ~subject:"void" ~body:"x";
  Net.run ~until:30.0 net;
  match Agentmail.mailbox k ~user:"alice" with
  | [ m ] ->
    check Alcotest.string "bounced subject" "bounced: void" m.Agentmail.subject;
    check Alcotest.string "postmaster" "postmaster" m.Agentmail.from_user
  | other -> Alcotest.failf "expected bounce, got %d messages" (List.length other)

let test_mail_forwarding () =
  let net, k = mail_world () in
  Agentmail.set_forward k ~user:"bob" ~to_user:"carol";
  Agentmail.send k ~src:0 ~from_user:"alice" ~to_user:"bob" ~subject:"fwd" ~body:"x";
  Net.run ~until:30.0 net;
  check Alcotest.int "bob keeps nothing" 0 (List.length (Agentmail.mailbox k ~user:"bob"));
  check Alcotest.(list string) "carol got it" [ "fwd" ]
    (subjects (Agentmail.mailbox k ~user:"carol"))

let test_mail_forward_cycle_dropped () =
  let net, k = mail_world () in
  Agentmail.set_forward k ~user:"bob" ~to_user:"carol";
  Agentmail.set_forward k ~user:"carol" ~to_user:"bob";
  Agentmail.send k ~src:0 ~from_user:"alice" ~to_user:"bob" ~subject:"loop" ~body:"x";
  Net.run ~until:60.0 net;
  (* hop bound breaks the cycle; nothing delivered, nothing diverges *)
  check Alcotest.int "bob empty" 0 (List.length (Agentmail.mailbox k ~user:"bob"));
  check Alcotest.int "carol empty" 0 (List.length (Agentmail.mailbox k ~user:"carol"))

let test_mail_vacation_once_per_sender () =
  let net, k = mail_world () in
  Agentmail.set_vacation k ~user:"bob" ~note:"away until spring";
  Agentmail.send k ~src:0 ~from_user:"alice" ~to_user:"bob" ~subject:"m1" ~body:"x";
  Agentmail.send k ~src:0 ~from_user:"alice" ~to_user:"bob" ~subject:"m2" ~body:"y";
  Agentmail.send k ~src:2 ~from_user:"carol" ~to_user:"bob" ~subject:"m3" ~body:"z";
  Net.run ~until:60.0 net;
  check Alcotest.int "bob got all three" 3 (List.length (Agentmail.mailbox k ~user:"bob"));
  let alice_auto =
    List.filter (fun m -> m.Agentmail.from_user = "bob") (Agentmail.mailbox k ~user:"alice")
  in
  check Alcotest.int "alice one auto-reply" 1 (List.length alice_auto);
  check Alcotest.int "carol one auto-reply" 1
    (List.length (Agentmail.mailbox k ~user:"carol"))

let test_mailing_list_fanout () =
  let net, k = mail_world () in
  Agentmail.make_list k ~name:"everyone" ~members:[ "alice"; "bob"; "carol" ];
  Agentmail.send k ~src:1 ~from_user:"bob" ~to_user:"everyone" ~subject:"ann" ~body:"news";
  Net.run ~until:60.0 net;
  List.iter
    (fun user ->
      check Alcotest.(list string) (user ^ " got the announcement") [ "ann" ]
        (subjects (Agentmail.mailbox k ~user)))
    [ "alice"; "bob"; "carol" ]

let test_mail_survives_transit_retry () =
  (* recipient's home down on first delivery attempt: with tcp transport the
     message agent is lost -- mail uses rexec, so this documents the loss
     mode; we then verify a later send gets through *)
  let net, k = mail_world () in
  Net.crash_for net ~site:1 ~at:0.0 ~downtime:2.0;
  Agentmail.send k ~src:0 ~from_user:"alice" ~to_user:"bob" ~subject:"early" ~body:"x";
  Net.run ~until:5.0 net;
  Agentmail.send k ~src:0 ~from_user:"alice" ~to_user:"bob" ~subject:"late" ~body:"y";
  Net.run ~until:30.0 net;
  check Alcotest.(list string) "late mail delivered after restart" [ "late" ]
    (subjects (Agentmail.mailbox k ~user:"bob"))

let () =
  Alcotest.run "apps"
    [
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "two services" `Quick test_rpc_two_services_one_site;
          Alcotest.test_case "bytes accounted" `Quick test_rpc_bytes_accounted;
          Alcotest.test_case "down server" `Quick test_rpc_lost_on_down_server;
        ] );
      ( "weather",
        [
          Alcotest.test_case "deterministic" `Quick test_weather_deterministic;
          Alcotest.test_case "wire roundtrip" `Quick test_weather_wire_roundtrip;
          Alcotest.test_case "storm signature" `Quick test_weather_storms_depress_pressure;
        ] );
      ( "stormcast",
        [
          Alcotest.test_case "architectures agree, agent cheaper" `Quick
            test_agent_and_central_agree;
          Alcotest.test_case "storms detected" `Quick test_predictions_catch_storms;
          Alcotest.test_case "script collector = native" `Quick
            test_script_collector_matches_native;
          Alcotest.test_case "resident monitors push" `Quick test_monitor_agents_push;
          Alcotest.test_case "quiet field" `Quick test_quiet_field_no_predictions;
        ] );
      ( "mail",
        [
          Alcotest.test_case "delivery" `Quick test_mail_delivery;
          Alcotest.test_case "bounce" `Quick test_mail_bounce;
          Alcotest.test_case "forwarding" `Quick test_mail_forwarding;
          Alcotest.test_case "forward cycle" `Quick test_mail_forward_cycle_dropped;
          Alcotest.test_case "vacation auto-reply" `Quick test_mail_vacation_once_per_sender;
          Alcotest.test_case "mailing list" `Quick test_mailing_list_fanout;
          Alcotest.test_case "transit loss + retry" `Quick test_mail_survives_transit_retry;
        ] );
    ]
