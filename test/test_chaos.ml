(* Tests for the chaos-plan subsystem (deterministic generation, round-trip
   persistence, netsim injection semantics) and for the seeded invariant
   harness: a full workload survives many mixed chaos schedules with every
   machine-checked invariant intact. *)

module Chaos = Netsim.Chaos
module Net = Netsim.Net
module Topology = Netsim.Topology
module Message = Netsim.Message
module Rng = Tacoma_util.Rng
module H = Chaos_harness

let check = Alcotest.check

(* --- plan generation and persistence --- *)

let mixed_plan seed =
  let topo = Topology.line 4 in
  Chaos.mixed ~rng:(Rng.create seed) ~topo ~until:200.0 ()

let test_mixed_deterministic () =
  let p1 = mixed_plan 7L and p2 = mixed_plan 7L in
  Alcotest.(check bool) "nonempty" true (p1 <> []);
  check Alcotest.string "same plan" (Chaos.to_string p1) (Chaos.to_string p2);
  let p3 = mixed_plan 8L in
  Alcotest.(check bool) "different seed, different plan" true
    (Chaos.to_string p1 <> Chaos.to_string p3)

let test_plan_roundtrip () =
  let p = mixed_plan 13L in
  match Chaos.of_string (Chaos.to_string p) with
  | Error e -> Alcotest.fail ("round-trip: " ^ e)
  | Ok p' -> check Alcotest.string "round-trip" (Chaos.to_string p) (Chaos.to_string p')

let test_validate_rejects () =
  let topo = Topology.line 3 in
  let bad_site = [ Chaos.Crash { site = 99; at = 1.0; downtime = 1.0 } ] in
  let bad_link =
    [ Chaos.Cut { links = [ (0, 2) ]; at = 1.0; duration = 1.0; label = "x" } ]
  in
  let bad_rate =
    [ Chaos.Loss_burst { link = None; at = 1.0; duration = 1.0; rate = 1.0 } ]
  in
  Alcotest.(check bool) "bad site" true (Result.is_error (Chaos.validate topo bad_site));
  Alcotest.(check bool) "bad link" true (Result.is_error (Chaos.validate topo bad_link));
  Alcotest.(check bool) "bad rate" true (Result.is_error (Chaos.validate topo bad_rate));
  Alcotest.(check bool) "good plan" true
    (Result.is_ok (Chaos.validate (Topology.line 4) (mixed_plan 1L)))

let test_double_failure_window () =
  let plan =
    [
      Chaos.Crash { site = 1; at = 10.0; downtime = 5.0 };
      Chaos.Crash { site = 2; at = 12.0; downtime = 5.0 };
    ]
  in
  Alcotest.(check bool) "adjacent overlap" true
    (Chaos.double_failure_window plan [ 0; 1; 2 ]);
  Alcotest.(check bool) "non-adjacent overlap" false
    (Chaos.double_failure_window plan [ 1; 0; 2 ])

(* --- injection semantics --- *)

let probe_send net ~at ~got =
  ignore
    (Net.schedule net ~after:at (fun () ->
         Net.send net ~src:0 ~dst:1 ~size:100 (Message.Ping "probe")));
  ignore got

let test_cut_window () =
  let net = Net.create (Topology.line 2) in
  Chaos.apply net
    [ Chaos.Cut { links = [ (0, 1) ]; at = 1.0; duration = 2.0; label = "t" } ];
  let got = ref 0 in
  Net.set_handler net 1 ~key:"t" (fun _ -> incr got);
  probe_send net ~at:0.5 ~got;
  probe_send net ~at:2.0 ~got;
  probe_send net ~at:4.0 ~got;
  Net.run net;
  check Alcotest.int "two delivered" 2 !got;
  check Alcotest.int "partition drop counted" 1
    (Obs.Metrics.counter (Net.metrics net) ~labels:[ ("reason", "partition") ] "net.drops");
  check Alcotest.int "healed" 2
    (Obs.Metrics.counter (Net.metrics net) ~labels:[ ("kind", "cut") ] "chaos.injected"
    + Obs.Metrics.counter (Net.metrics net) ~labels:[ ("kind", "cut") ] "chaos.healed")

let test_overlapping_cuts_refcounted () =
  let net = Net.create (Topology.line 2) in
  Chaos.apply net
    [
      Chaos.Cut { links = [ (0, 1) ]; at = 1.0; duration = 4.0; label = "a" };
      Chaos.Cut { links = [ (0, 1) ]; at = 3.0; duration = 5.0; label = "b" };
    ];
  let got = ref 0 in
  Net.set_handler net 1 ~key:"t" (fun _ -> incr got);
  (* t=6: the first cut ended but the second still covers the link. *)
  probe_send net ~at:6.0 ~got;
  (* t=9: both windows closed; the link must be healed. *)
  probe_send net ~at:9.0 ~got;
  Net.run net;
  check Alcotest.int "only post-heal delivery" 1 !got

let test_loss_burst_window () =
  let net = Net.create ~seed:5L (Topology.line 2) in
  Chaos.apply net
    [ Chaos.Loss_burst { link = Some (0, 1); at = 1.0; duration = 2.0; rate = 0.999 } ];
  let got = ref 0 in
  Net.set_handler net 1 ~key:"t" (fun _ -> incr got);
  for i = 0 to 9 do
    probe_send net ~at:(1.1 +. (0.1 *. float_of_int i)) ~got
  done;
  probe_send net ~at:5.0 ~got;
  Net.run net;
  (* With the fixed seed every burst-window probe is lost; the post-window
     probe must get through because the override was removed. *)
  check Alcotest.int "post-burst delivery" 1 !got;
  check Alcotest.int "losses counted" 10
    (Obs.Metrics.counter (Net.metrics net) ~labels:[ ("reason", "loss") ] "net.drops")

let test_degrade_slows_link () =
  let net = Net.create (Topology.line 2) in
  Chaos.apply net
    [
      Chaos.Degrade
        { link = (0, 1); at = 1.0; duration = 10.0; latency = 10.0; bandwidth = 1.0 };
    ];
  let at = ref 0.0 in
  Net.set_handler net 1 ~key:"t" (fun _ -> at := Net.now net);
  ignore
    (Net.schedule net ~after:2.0 (fun () ->
         Net.send net ~src:0 ~dst:1 ~size:1000 (Message.Ping "x")));
  Net.run net;
  (* 5ms base latency x10 + 1000B at 1MB/s = 51ms *)
  check (Alcotest.float 1e-6) "degraded delivery time" 2.051 !at;
  (* after the window the link is restored *)
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9))))
    "restored" None
    (Net.link_degraded net 0 1)

let test_crash_skip_accounting () =
  let net = Net.create (Topology.line 2) in
  Chaos.apply net
    [
      Chaos.Crash { site = 1; at = 1.0; downtime = 10.0 };
      Chaos.Crash { site = 1; at = 2.0; downtime = 1.0 };
    ];
  (* the second crash fires while the site is already down and is skipped
     together with its paired restart, so the first crash's downtime is not
     cut short *)
  Net.run ~until:5.0 net;
  Alcotest.(check bool) "still down at t=5 (short restart skipped)" false
    (Net.site_up net 1);
  Net.run ~until:30.0 net;
  let m = Net.metrics net in
  check Alcotest.int "one injected" 1
    (Obs.Metrics.counter m ~labels:[ ("kind", "crash") ] "chaos.injected");
  check Alcotest.int "one skipped" 1
    (Obs.Metrics.counter m ~labels:[ ("kind", "crash") ] "chaos.skipped");
  (* the skipped crash's restart is skipped with it: the site restarts at
     t=11 from the first crash and stays up *)
  Alcotest.(check bool) "site back up" true (Net.site_up net 1)

(* --- the invariant harness --- *)

let test_harness_single_seed () =
  let v = H.run_seed ~seed:0 () in
  if not (H.passed v) then
    Alcotest.failf "violations: %s" (String.concat "; " v.H.v_violations);
  Alcotest.(check bool) "journeys accounted" true
    (v.H.v_completed + v.H.v_lost_attributed = v.H.v_journeys);
  Alcotest.(check bool) "bookings resolved" true
    (v.H.v_bookings_ok + v.H.v_bookings_failed = 4)

let test_harness_many_seeds () =
  (* The acceptance bar: >= 50 seeded mixed chaos schedules, all invariants
     intact.  Failures print the verdicts for diagnosis. *)
  let vs = H.run_sweep ~seeds:(List.init 50 (fun i -> i)) () in
  if not (H.all_passed vs) then
    Alcotest.failf "harness violations:@.%s"
      (String.concat "\n"
         (List.filter_map
            (fun v ->
              if H.passed v then None
              else Some (Format.asprintf "%a" H.pp_verdict v))
            vs));
  (* with guards on, chaos must not silently eat the fleet: across the
     sweep the overwhelming majority of journeys complete *)
  let total = List.fold_left (fun a v -> a + v.H.v_journeys) 0 vs in
  let completed = List.fold_left (fun a v -> a + v.H.v_completed) 0 vs in
  Alcotest.(check bool)
    (Printf.sprintf "guarded completion %d/%d >= 90%%" completed total)
    true
    (float_of_int completed >= 0.9 *. float_of_int total)

let test_harness_unguarded () =
  let config = { H.default_config with guarded = false } in
  let vs = H.run_sweep ~config ~seeds:[ 0; 1; 2; 3; 4 ] () in
  if not (H.all_passed vs) then
    Alcotest.failf "unguarded violations:@.%s"
      (String.concat "\n" (List.concat_map (fun v -> v.H.v_violations) vs))

let test_verdict_json () =
  let v = H.run_seed ~seed:3 () in
  let j = H.verdict_json v in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has seed" true (contains j "\"seed\":3");
  Alcotest.(check bool) "has violations array" true (contains j "\"violations\":[")

let test_sweep_byte_identical_across_jobs () =
  (* the multicore determinism contract: fanning seeds out over worker
     domains must not change a single byte of the verdict stream (which
     embeds the netstats counters: msgs sent/dropped, bytes) *)
  let seeds = [ 0; 1; 2; 3 ] in
  let render jobs =
    H.run_sweep ~jobs ~seeds ()
    |> List.map H.verdict_json
    |> String.concat "\n"
  in
  let serial = render 1 in
  check Alcotest.string "jobs=4 matches jobs=1" serial (render 4);
  check Alcotest.string "jobs=0 (all cores) matches jobs=1" serial (render 0)

let () =
  Alcotest.run "chaos"
    [
      ( "plans",
        [
          Alcotest.test_case "mixed deterministic" `Quick test_mixed_deterministic;
          Alcotest.test_case "round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "validate" `Quick test_validate_rejects;
          Alcotest.test_case "double-failure window" `Quick test_double_failure_window;
        ] );
      ( "injection",
        [
          Alcotest.test_case "cut window" `Quick test_cut_window;
          Alcotest.test_case "overlapping cuts" `Quick test_overlapping_cuts_refcounted;
          Alcotest.test_case "loss burst" `Quick test_loss_burst_window;
          Alcotest.test_case "degradation" `Quick test_degrade_slows_link;
          Alcotest.test_case "crash skip accounting" `Quick test_crash_skip_accounting;
        ] );
      ( "harness",
        [
          Alcotest.test_case "single seed" `Quick test_harness_single_seed;
          Alcotest.test_case "50 seeds" `Slow test_harness_many_seeds;
          Alcotest.test_case "unguarded baseline" `Quick test_harness_unguarded;
          Alcotest.test_case "verdict json" `Quick test_verdict_json;
          Alcotest.test_case "byte-identical across jobs" `Quick
            test_sweep_byte_identical_across_jobs;
        ] );
    ]
