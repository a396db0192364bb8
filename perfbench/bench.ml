(* The repo benchmark.  One run measures one workload for a fixed host-time
   budget and prints, as its last line, one JSON object:
   [{"correct", "attempted", "failed", "metrics"}].

   Untraced ([--trace 0]) it reports the end-to-end metrics of a closed
   serial loop of independent simulations: the next starts when the
   previous one returns.  Traced ([--trace 1]) it runs a shorter untraced
   loop, the same inputs fanned out over a domain pool, then a traced loop
   that records host-time spans around the calls into each layer and runs
   the layer probes after every simulation; it reports the per-layer
   metrics.  End-to-end times are scaled to a reference host speed
   sampled between simulations (see [Hostref]); per-layer times are not.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1
          bench.exe --self-test *)

module Rng = Tacoma_util.Rng

module type WORKLOAD = sig
  type input
  type outcome

  val gen : Rng.t -> input
  val simulate : Span.t -> input -> outcome
  val check : input -> outcome -> bool

  val tamper : outcome -> outcome
  (** a wrong output, for the self-test *)

  val sweep : jobs:int -> input list -> bool list
  (** simulate and check every input on a pool of [jobs] domains *)

  val observe : Layer.t -> seed:int -> input -> outcome -> unit
  (** after a traced simulation: add its layer counts and run the probes *)

  val warmup : int
  (** simulations run untimed during set-up *)
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("script_tour", (module Script_tour));
    ("chaos_mix", (module Chaos_mix));
    ("broker_monitors", (module Broker_monitors));
  ]

(* Inputs are drawn once per run and cycled through by the loops. *)
let distinct_inputs = 512

(* At least this many timed simulations, so the 90th percentile has ten
   samples beyond it. *)
let min_samples = 100
let setup_repeats = 7
let sample_every_s = 0.1
let now = Span.now

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank. *)
let percentile p a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* A "Field: N kB" line of /proc/self/status, in kB (Linux). *)
let status_kb field =
  let prefix = field ^ ":" in
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith (field ^ " missing from /proc/self/status")
        | Some line when String.starts_with ~prefix line ->
          let n = String.length prefix in
          Scanf.sscanf (String.sub line n (String.length line - n)) " %d kB" float_of_int
        | Some _ -> scan ()
      in
      scan ())

let json_number x =
  (* a failed simulation counts as infinitely slow; JSON has no infinity *)
  if Float.is_finite x then Printf.sprintf "%.17g" x else "1e308"

(* Times are scaled to the reference host speed (see [Hostref]), except
   [raw_sim_s]. *)
type phase = {
  n : int;
  passed : int;
  times : float array;  (** per simulation; infinity for a failed one *)
  sim_s : float;
  raw_sim_s : float;
}

(* Simulations completed correctly per second spent simulating. *)
let rate p = float_of_int p.passed /. p.sim_s
let raw_rate p = float_of_int p.passed /. p.raw_sim_s

let spans_dir = ".bench_out"

let run_with host (module W : WORKLOAD) ~seed ~seconds ~trace ~name =
  let attempted = ref 0 and failed = ref 0 in
  let tally ok =
    incr attempted;
    if not ok then incr failed
  in
  let gen_inputs () =
    let rng = Rng.create (Int64.of_int seed) in
    Array.init distinct_inputs (fun _ -> W.gen (Rng.split rng))
  in
  (* set-up: draw the inputs and warm up, several times; report the median.
     Each repeat warms up on its own inputs, so the median does not hang on
     the cost of the first few a seed draws. *)
  let inputs = ref [||] in
  let setup_s =
    median
      (List.init setup_repeats (fun r ->
           snd
             (Hostref.timed host (fun () ->
                  inputs := gen_inputs ();
                  for i = r * W.warmup to ((r + 1) * W.warmup) - 1 do
                    let inp = !inputs.(i mod distinct_inputs) in
                    tally (W.check inp (W.simulate Span.off inp))
                  done))))
  in
  let inputs = !inputs in
  let input i = inputs.(i mod distinct_inputs) in
  (* closed serial loop; a failed simulation is recorded as infinitely slow.
     The host reference is sampled between simulations, at least every
     [sample_every_s]; each block of simulations between two samples is
     scaled by their mean. *)
  let serial ~budget ~min_n ~sp ~after =
    let times = ref [] and n = ref 0 and passed = ref 0 in
    let sim_s = ref 0.0 and raw_sim_s = ref 0.0 in
    let block = ref [] and r_prev = ref (Hostref.sample host) and last = ref (now ()) in
    let close_block () =
      let r = Hostref.sample host in
      let scale = Hostref.nominal_s /. ((!r_prev +. r) /. 2.0) in
      List.iter
        (fun (dt, ok) ->
          let d = dt *. scale in
          sim_s := !sim_s +. d;
          times := (if ok then d else infinity) :: !times)
        !block;
      block := [];
      r_prev := r;
      last := now ()
    in
    let t_start = now () in
    while now () -. t_start < budget || !n < min_n do
      let inp = input !n in
      let t0 = now () in
      let o = Span.with_span sp "sim" (fun () -> W.simulate sp inp) in
      let dt = now () -. t0 in
      let ok = W.check inp o in
      tally ok;
      if ok then incr passed;
      raw_sim_s := !raw_sim_s +. dt;
      block := (dt, ok) :: !block;
      after !n inp o;
      incr n;
      if now () -. !last >= sample_every_s then close_block ()
    done;
    if !block <> [] then close_block ();
    {
      n = !n;
      passed = !passed;
      times = Array.of_list !times;
      sim_s = !sim_s;
      raw_sim_s = !raw_sim_s;
    }
  in
  let no_after _ _ _ = () in
  let sweep ~budget ~serial_rate =
    let k =
      max (4 * Domain.recommended_domain_count ()) (int_of_float (budget *. serial_rate))
    in
    let t0 = now () in
    let oks = W.sweep ~jobs:0 (List.init k input) in
    let dt = now () -. t0 in
    List.iter tally oks;
    float_of_int k /. dt
  in
  let metrics =
    if not trace then begin
      (* the peak after a fixed amount of work: the resident set grows with
         every simulation on some workloads, and a faster program must not
         be charged for the extra simulations it fits into the run *)
      let peak_kb = ref nan in
      let p =
        serial ~budget:seconds ~min_n:min_samples ~sp:Span.off ~after:(fun i _ _ ->
            if i + 1 = min_samples then peak_kb := status_kb "VmHWM")
      in
      let p90 = percentile 0.9 p.times in
      let beyond = Array.fold_left (fun a t -> if t > p90 then a + 1 else a) 0 p.times in
      Printf.printf "# %s: sim_ms_p90 from %d timed simulations, %d beyond it\n" name p.n
        beyond;
      Printf.printf "# %s: unscaled sims_per_s %.4g; host reference median %.4g ms (nominal %g)\n"
        name (raw_rate p)
        (1000.0 *. median host.Hostref.samples)
        (1000.0 *. Hostref.nominal_s);
      [
        ("sims_per_s", "1/s", rate p);
        ("sim_ms_p50", "ms", 1000.0 *. percentile 0.5 p.times);
        ("sim_ms_p90", "ms", 1000.0 *. p90);
        ("setup_s", "s", setup_s);
        ("peak_rss_mb", "MB", !peak_kb /. 1024.0);
        ( "ops_ok_frac",
          "frac",
          float_of_int (!attempted - !failed) /. float_of_int !attempted );
      ]
    end
    else begin
      (* release set-up's garbage first, so the resident set's change over
         the loop is the loop's own *)
      Gc.compact ();
      let gc0 = Gc.quick_stat () and rss0 = status_kb "VmRSS" in
      let u = serial ~budget:(0.35 *. seconds) ~min_n:1 ~sp:Span.off ~after:no_after in
      let gc1 = Gc.quick_stat () and rss1 = status_kb "VmRSS" in
      let sweep_rate = sweep ~budget:(0.15 *. seconds) ~serial_rate:(raw_rate u) in
      let sp = Span.create ~enabled:true and l = Layer.create () in
      let tr =
        serial ~budget:(0.5 *. seconds) ~min_n:10 ~sp ~after:(fun i inp o ->
            W.observe l ~seed:(seed + i) inp o)
      in
      let s = Span.summary sp in
      (try
         if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
         let path = Filename.concat spans_dir (Printf.sprintf "spans-%s-%d.jsonl" name seed) in
         Span.write sp path;
         Printf.printf "# spans written to %s\n" path
       with Sys_error msg -> Printf.printf "# spans not written: %s\n" msg);
      let g = Layer.get l in
      let n = float_of_int tr.n and un = float_of_int u.n in
      let per_sim x = x /. n in
      let ratio a b = if b = 0.0 then 0.0 else a /. b in
      let frac hit miss = ratio (g hit) (g hit +. g miss) in
      let sim = s "sim" and run_code = s "run_code" and migrate = s "migrate" in
      Printf.printf
        "# %s attribution per simulation: span %.4f ms = netsim self %.4f + run_code %.4f + \
         migrate %.4f + chaos.plan %.4f\n"
        name
        (1000.0 *. per_sim sim.total_s)
        (1000.0 *. per_sim sim.self_s)
        (1000.0 *. per_sim run_code.total_s)
        (1000.0 *. per_sim migrate.total_s)
        (1000.0 *. per_sim (s "chaos.plan").total_s);
      [
        ("bench.sim_ms_per_sim", "ms", 1000.0 *. per_sim sim.total_s);
        ("netsim.events_per_sim", "count", per_sim (g "events"));
        ("netsim.self_ms_per_sim", "ms", 1000.0 *. per_sim sim.self_s);
        ("netsim.engine_ns_per_event", "ns", 1e9 *. ratio (g "engine_s") (g "engine_events"));
        ("netsim.cancel_ns_per_event", "ns", 1e9 *. ratio (g "cancel_s") (g "cancel_pairs"));
        ("netsim.send_ns_per_msg", "ns", 1e9 *. ratio (g "send_s") (g "send_msgs"));
        ("netsim.msgs_per_sim", "count", per_sim (g "msgs"));
        ("netsim.kb_per_sim", "KB", per_sim (g "bytes") /. 1024.0);
        ("netsim.drop_frac", "frac", ratio (g "msgs_dropped") (g "msgs"));
        ("tscript.run_code_ms_per_sim", "ms", 1000.0 *. per_sim run_code.total_s);
        ("tscript.steps_per_sim", "count", per_sim (g "steps"));
        ("tscript.ns_per_step", "ns", 1e9 *. ratio run_code.total_s (g "steps"));
        ( "tscript.parse_hit_frac",
          "frac",
          frac "tscript.parse_cache.hit" "tscript.parse_cache.miss" );
        ( "tscript.expr_hit_frac",
          "frac",
          frac "tscript.expr_cache.hit" "tscript.expr_cache.miss" );
        ( "kernel.migrate_us_per_hop",
          "us",
          1e6 *. ratio migrate.total_s (float_of_int migrate.count) );
        ("kernel.hops_per_sim", "count", per_sim (float_of_int migrate.count));
        ("codec.ns_per_byte", "ns/B", 1e9 *. ratio (g "codec_s") (g "codec_bytes"));
        ("codecache.hit_frac", "frac", frac "codecache.hits" "codecache.misses");
        ("sha256.ns_per_byte", "ns/B", 1e9 *. ratio (g "sha256_s") (g "sha256_bytes"));
        ("guard.relaunches_per_sim", "count", per_sim (g "relaunches"));
        ("broker.failovers_per_sim", "count", per_sim (g "failovers"));
        ("chaos.faults_per_sim", "count", per_sim (g "faults"));
        ( "chaos.plan_ms",
          "ms",
          1000.0 *. ratio (s "chaos.plan").total_s (float_of_int (s "chaos.plan").count) );
        ("cash.banked_frac", "frac", ratio (g "cash_banked") (g "cash_minted"));
        ("broker.jobs_done_frac", "frac", ratio (g "jobs_done") (g "jobs_submitted"));
        ("broker.lookup_us", "us", 1e6 *. ratio (g "lookup_s") (g "lookups"));
        ("pool.speedup", "x", sweep_rate /. raw_rate u);
        ( "gc.minor_mb_per_sim",
          "MB",
          (gc1.Gc.minor_words -. gc0.Gc.minor_words) *. float_of_int (Sys.word_size / 8)
          /. 1e6 /. un );
        ( "gc.promoted_mb_per_sim",
          "MB",
          (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) *. float_of_int (Sys.word_size / 8)
          /. 1e6 /. un );
        ( "gc.major_per_sim",
          "count",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. un );
        ("mem.rss_growth_kb_per_ksim", "KB", 1000.0 *. (rss1 -. rss0) /. un);
        ("trace.overhead_frac", "frac", (raw_rate u /. raw_rate tr) -. 1.0);
        ("host.ref_ms", "ms", 1000.0 *. median host.Hostref.samples);
      ]
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))

let run w ~seed ~seconds ~trace ~name =
  let host = Hostref.start () in
  Fun.protect
    ~finally:(fun () -> Hostref.stop host)
    (fun () -> run_with host w ~seed ~seconds ~trace ~name)

(* Each workload's checker accepts real outputs and rejects tampered ones;
   a traced chaos simulation (plan generated, then replayed) gives the
   verdict an untraced one does. *)
let self_test () =
  let failures = ref 0 in
  let expect what b =
    Printf.printf "%s %s\n" (if b then "ok  " else "FAIL") what;
    if not b then incr failures
  in
  List.iter
    (fun (name, (module W : WORKLOAD)) ->
      let rng = Rng.create 7L in
      for i = 1 to 3 do
        let inp = W.gen (Rng.split rng) in
        let o = W.simulate Span.off inp in
        expect (Printf.sprintf "%s input %d passes its check" name i) (W.check inp o);
        expect
          (Printf.sprintf "%s input %d: tampered output fails its check" name i)
          (not (W.check inp (W.tamper o)))
      done)
    workloads;
  List.iter
    (fun seed ->
      let untraced = Chaos_mix.simulate Span.off seed
      and traced = Chaos_mix.simulate (Span.create ~enabled:true) seed in
      expect
        (Printf.sprintf "chaos_mix seed %d: replayed plan gives the same verdict" seed)
        (Chaos_harness.verdict_json untraced = Chaos_harness.verdict_json traced))
    [ 1; 42; 977 ];
  if !failures > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--self-test", Arg.Set self, " check the workloads' checkers and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then self_test ()
  else
    match List.assoc_opt !workload workloads with
    | None ->
      prerr_endline
        ("unknown workload; one of: " ^ String.concat ", " (List.map fst workloads));
      exit 2
    | Some w ->
      Printf.printf "# host: nproc=%d ocaml=%s OCAMLRUNPARAM=%S\n"
        (Domain.recommended_domain_count ())
        Sys.ocaml_version
        (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"));
      run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~name:!workload
