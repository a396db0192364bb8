(* Host-time spans recorded by the benchmark around its calls into each
   layer.  Each span has a name, a start, an end and a parent.  Spans are
   kept in memory and written out when the run ends; a disabled recorder
   costs one branch per call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  start : float;
  mutable stop : float;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable current : int;
}

let now = Unix.gettimeofday
let create ~enabled = { enabled; spans = []; next_id = 1; current = 0 }
let off = create ~enabled:false
let enabled t = t.enabled

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let s = { id = t.next_id; name; parent = t.current; start = now (); stop = nan } in
    t.next_id <- t.next_id + 1;
    t.spans <- s :: t.spans;
    t.current <- s.id;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        t.current <- s.parent)
      f
  end

let duration s = s.stop -. s.start

(* Self time per span: its duration minus the time its children cover.
   Spans nest strictly on one domain, so children never overlap and their
   durations add up. *)
let self_times t =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let c = Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent) in
        Hashtbl.replace covered s.parent (c +. duration s))
    t.spans;
  List.rev_map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)))
    t.spans

type total = { self_s : float; total_s : float; count : int }

(* Per span name: summed self time, summed duration and span count. *)
let summary t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let a =
        Option.value ~default:{ self_s = 0.0; total_s = 0.0; count = 0 }
          (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        { self_s = a.self_s +. self; total_s = a.total_s +. duration s; count = a.count + 1 })
    (self_times t);
  fun name ->
    Option.value ~default:{ self_s = 0.0; total_s = 0.0; count = 0 } (Hashtbl.find_opt tbl name)

let write t path =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"self_s\":%.9f}\n"
        s.id s.name s.parent s.start s.stop self)
    (self_times t);
  close_out oc
