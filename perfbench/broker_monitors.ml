(* broker_monitors: experiment E5 — a Poisson job stream scheduled by a
   broker over heterogeneous providers whose load monitors report
   periodically — run under all four policies per call.  Providers, job
   count, arrival mean and report rate are drawn from the seed.  The report
   period is lengthened with the provider count, so the broker receives one
   report every 7.5-15 simulated seconds and a call's cost varies about
   twofold with that draw; the experiment keeps its own 36 000 s horizon,
   so most of each call simulates load reports after the last job has
   finished. *)

module E5 = Experiments.E5_broker
module Briefcase = Tacoma_core.Briefcase
module Rng = Tacoma_util.Rng

type input = E5.params
type outcome = E5.row list

let gen rng =
  let m = 4 + Rng.int rng 5 in
  {
    E5.providers = List.init m (fun _ -> float_of_int (1 + Rng.int rng 4));
    jobs = 60 + Rng.int rng 81;
    mean_interarrival = Rng.range_float rng 0.2 0.4;
    work_per_job = 3.0;
    report_period = Rng.range_float rng 7.5 15.0 *. float_of_int m;
  }

let simulate _ params = E5.run ~params ()

(* Every policy row completed every submitted job, with finite, positive
   response times. *)
let check (p : input) rows =
  let finite_pos x = Float.is_finite x && x > 0.0 in
  List.length rows = 4
  && List.for_all
       (fun (r : E5.row) ->
         r.jobs = p.jobs
         && finite_pos r.makespan
         && finite_pos r.mean_response
         && finite_pos r.p95_response)
       rows

let tamper = function
  | (r : E5.row) :: rest -> { r with jobs = r.jobs - 1 } :: rest
  | [] -> []

let sweep ~jobs inputs =
  Tacoma_util.Pool.with_pool ~jobs (fun pool ->
      Tacoma_util.Pool.map pool (fun p -> check p (simulate Span.off p)) inputs)

(* The job briefcase E5 submits to a provider. *)
let job_briefcase i =
  let bc = Briefcase.create () in
  Briefcase.set bc "JOB" (Printf.sprintf "job-%d" i);
  Briefcase.set bc "WORK" (string_of_float 3.0);
  Briefcase.set bc "REPLY-HOST" "site-0";
  Briefcase.set bc "REPLY-AGENT" "job-back";
  bc

let observe (l : Layer.t) ~seed (p : input) rows =
  let m = List.length p.providers in
  Layer.addi l "jobs_submitted" (4 * p.jobs);
  Layer.addi l "jobs_done" (List.fold_left (fun a (r : E5.row) -> a + r.jobs) 0 rows);
  Layer.engine l ~timers:m ~events:2000;
  Layer.cancel l ~pairs:500;
  Layer.send l ~topo:(Netsim.Topology.star m) ~msgs:200 ~size:256 ~seed;
  Layer.codec l (List.init p.jobs job_briefcase);
  Layer.sha256 l ~codes:[] ~bills:p.jobs;
  Layer.lookup l ~capacities:p.providers ~lookups:p.jobs

let warmup = 2
