(* The host's speed, sampled from a reference process.

   On a shared host the same code runs at speeds that drift by a quarter or
   more over minutes, as neighbours contend for the caches and memory bus;
   a compute-only loop barely moves while allocation-heavy OCaml slows with
   them.  The benchmark forks a child process, before it runs any
   simulation, that runs a fixed allocation-heavy reference task on request
   and replies with its host time.  The loops sample it between
   simulations, never during one, and report each simulation's time scaled
   by [nominal_s / reference]: its time at the reference speed.  The child
   runs no code from the program under test and has its own heap, so
   nothing the program does to its own heap or GC moves the reference. *)

module M = Map.Make (Int)

(* An ordered map of 3000 string values built from empty. *)
let task () =
  let m = ref M.empty in
  for i = 1 to 3000 do
    m := M.add ((i * 7919) land 0xffff) (string_of_int i) !m
  done;
  M.cardinal !m

(* The median of three runs of [task], in seconds. *)
let measure () =
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (task ()));
    Unix.gettimeofday () -. t0
  in
  let a = once () in
  let b = once () in
  let c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* A sample's typical value on the host the bounds were set on (2 shared
   cores, OCaml 5.1.1); it fixes the unit, not the comparison. *)
let nominal_s = 0.0011

type t = {
  pid : int;
  req : Unix.file_descr;
  resp : in_channel;
  mutable samples : float list;
}

(* The child answers one byte with one sample, and exits when the pipe
   closes: when [stop] runs, or when the parent dies. *)
let start () =
  flush_all ();
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    let b = Bytes.create 1 in
    (try
       while Unix.read req_r b 0 1 = 1 do
         let s = Printf.sprintf "%.17g\n" (measure ()) in
         ignore (Unix.write_substring resp_w s 0 (String.length s))
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    { pid; req = req_w; resp = Unix.in_channel_of_descr resp_r; samples = [] }

let sample t =
  if Unix.write_substring t.req "x" 0 1 <> 1 then failwith "hostref: request not sent";
  let s = float_of_string (input_line t.resp) in
  t.samples <- s :: t.samples;
  s

let stop t =
  Unix.close t.req;
  close_in_noerr t.resp;
  ignore (Unix.waitpid [] t.pid)

(* Time [f] in host seconds at the reference speed: the scale is taken
   from the samples just before and just after it. *)
let timed t f =
  let r0 = sample t in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let dt = Unix.gettimeofday () -. t0 in
  (x, dt *. nominal_s /. ((r0 +. sample t) /. 2.0))
