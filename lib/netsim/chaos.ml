module Rng = Tacoma_util.Rng

type link = Site.id * Site.id

type event =
  | Crash of { site : Site.id; at : float; downtime : float }
  | Cut of { links : link list; at : float; duration : float; label : string }
  | Loss_burst of { link : link option; at : float; duration : float; rate : float }
  | Degrade of {
      link : link;
      at : float;
      duration : float;
      latency : float;
      bandwidth : float;
    }

type plan = event list

let at_of = function
  | Crash { at; _ } | Cut { at; _ } | Loss_burst { at; _ } | Degrade { at; _ } -> at

let kind_of = function
  | Crash _ -> "crash"
  | Cut _ -> "cut"
  | Loss_burst _ -> "loss"
  | Degrade _ -> "degrade"

let sort plan = List.stable_sort (fun a b -> compare (at_of a) (at_of b)) plan
let counts plan =
  List.fold_left
    (fun acc e ->
      let k = kind_of e in
      match List.assoc_opt k acc with
      | Some n -> (k, n + 1) :: List.remove_assoc k acc
      | None -> (k, 1) :: acc)
    [] plan
  |> List.sort compare

(* Crash windows per site, for attributing losses to double-failure
   intervals: a guarded computation can only vanish silently when its site
   and its guard's site are down at overlapping times. *)
let crash_windows plan =
  List.filter_map
    (function
      | Crash { site; at; downtime } -> Some (site, (at, at +. downtime))
      | Cut _ | Loss_burst _ | Degrade _ -> None)
    plan

let windows_overlap (a1, a2) (b1, b2) = a1 < b2 && b1 < a2

let double_failure_window plan sites =
  let windows = crash_windows plan in
  let of_site s = List.filter_map (fun (s', w) -> if s' = s then Some w else None) windows in
  let rec adjacent = function
    | a :: (b :: _ as rest) ->
      List.exists (fun wa -> List.exists (windows_overlap wa) (of_site b)) (of_site a)
      || adjacent rest
    | [ _ ] | [] -> false
  in
  adjacent sites

(* ---- generators ------------------------------------------------------------ *)

let arrivals rng ~rate ~until =
  if rate <= 0.0 then []
  else begin
    let rec go acc time =
      let time = time +. Rng.exponential rng ~mean:(1.0 /. rate) in
      if time >= until then List.rev acc else go (time :: acc) time
    in
    go [] 0.0
  end

let links_of topo =
  let acc = ref [] in
  Topology.iter_links topo (fun a b _ -> acc := (a, b) :: !acc);
  Array.of_list (List.rev !acc)

let crashes ~rng ~sites ~rate ~mean_downtime ~until =
  if rate <= 0.0 then []
  else
    List.concat_map
      (fun site ->
        let stream = Rng.split rng in
        let rec gen acc time =
          let time = time +. Rng.exponential stream ~mean:(1.0 /. rate) in
          if time >= until then List.rev acc
          else
            let downtime = Rng.exponential stream ~mean:mean_downtime in
            (* next crash can only happen after the site is back up *)
            gen (Crash { site; at = time; downtime } :: acc) (time +. downtime)
        in
        gen [] 0.0)
      sites

let flapping ~rng ~topo ~rate ~mean_downtime ~until =
  let links = links_of topo in
  if Array.length links = 0 then []
  else
    List.map
      (fun at ->
        let link = Rng.pick rng links in
        let duration = Rng.exponential rng ~mean:mean_downtime in
        Cut { links = [ link ]; at; duration; label = "flap" })
      (arrivals rng ~rate ~until)

(* A clean bisection: every site lands on a random side of a cut and all
   crossing links go down together.  Sides are redrawn until both are
   non-empty (n >= 2 guarantees termination). *)
let random_cut rng topo =
  let n = Topology.site_count topo in
  let side = Array.make n false in
  let ok () =
    let t = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 side in
    t > 0 && t < n
  in
  let rec draw () =
    for i = 0 to n - 1 do
      side.(i) <- Rng.bool rng
    done;
    if not (ok ()) then draw ()
  in
  if n < 2 then []
  else begin
    draw ();
    let crossing = ref [] in
    Topology.iter_links topo (fun a b _ ->
        if side.(a) <> side.(b) then crossing := (a, b) :: !crossing);
    List.rev !crossing
  end

let bisections ~rng ~topo ~rate ~mean_downtime ~until =
  List.filter_map
    (fun at ->
      let links = random_cut rng topo in
      let duration = Rng.exponential rng ~mean:mean_downtime in
      if links = [] then None else Some (Cut { links; at; duration; label = "bisection" }))
    (arrivals rng ~rate ~until)

let loss_bursts ~rng ~topo ~rate ~mean_duration ~loss ~until =
  let links = links_of topo in
  List.map
    (fun at ->
      let link =
        if Array.length links = 0 || Rng.bool rng then None else Some (Rng.pick rng links)
      in
      let duration = Rng.exponential rng ~mean:mean_duration in
      Loss_burst { link; at; duration; rate = loss })
    (arrivals rng ~rate ~until)

let degradations ~rng ~topo ~rate ~mean_duration ~latency_factor ~bandwidth_factor ~until =
  let links = links_of topo in
  if Array.length links = 0 then []
  else
    List.map
      (fun at ->
        let link = Rng.pick rng links in
        let duration = Rng.exponential rng ~mean:mean_duration in
        Degrade
          { link; at; duration; latency = latency_factor; bandwidth = bandwidth_factor })
      (arrivals rng ~rate ~until)

type profile = {
  crash_rate : float;
  mean_downtime : float;
  bisection_rate : float;
  mean_partition : float;
  flap_rate : float;
  mean_flap : float;
  loss_burst_rate : float;
  mean_loss_burst : float;
  burst_loss : float;
  degrade_rate : float;
  mean_degrade : float;
  latency_factor : float;
  bandwidth_factor : float;
}

let default_profile =
  {
    crash_rate = 1.0 /. 300.0;
    mean_downtime = 10.0;
    bisection_rate = 1.0 /. 200.0;
    mean_partition = 8.0;
    flap_rate = 1.0 /. 120.0;
    mean_flap = 4.0;
    loss_burst_rate = 1.0 /. 150.0;
    mean_loss_burst = 6.0;
    burst_loss = 0.4;
    degrade_rate = 1.0 /. 150.0;
    mean_degrade = 8.0;
    latency_factor = 8.0;
    bandwidth_factor = 0.2;
  }

let mixed ~rng ~topo ?(profile = default_profile) ~until () =
  (* one split per fault class, in a fixed order, so tuning one rate never
     perturbs the schedules of the others *)
  let crash_rng = Rng.split rng in
  let bisect_rng = Rng.split rng in
  let flap_rng = Rng.split rng in
  let loss_rng = Rng.split rng in
  let degrade_rng = Rng.split rng in
  let p = profile in
  sort
    (crashes ~rng:crash_rng ~sites:(Topology.sites topo) ~rate:p.crash_rate
       ~mean_downtime:p.mean_downtime ~until
    @ bisections ~rng:bisect_rng ~topo ~rate:p.bisection_rate
        ~mean_downtime:p.mean_partition ~until
    @ flapping ~rng:flap_rng ~topo ~rate:p.flap_rate ~mean_downtime:p.mean_flap ~until
    @ loss_bursts ~rng:loss_rng ~topo ~rate:p.loss_burst_rate
        ~mean_duration:p.mean_loss_burst ~loss:p.burst_loss ~until
    @ degradations ~rng:degrade_rng ~topo ~rate:p.degrade_rate
        ~mean_duration:p.mean_degrade ~latency_factor:p.latency_factor
        ~bandwidth_factor:p.bandwidth_factor ~until)

(* ---- validation ------------------------------------------------------------ *)

let validate topo plan =
  let n = Topology.site_count topo in
  let check_link (a, b) =
    match Topology.link topo a b with
    | Some _ -> Ok ()
    | None -> Error (Printf.sprintf "no such link %d-%d" a b)
  in
  let check_event e =
    let time_ok at duration =
      if at < 0.0 then Error "negative event time"
      else if duration < 0.0 then Error "negative duration"
      else Ok ()
    in
    match e with
    | Crash { site; at; downtime } ->
      if site < 0 || site >= n then Error (Printf.sprintf "no such site %d" site)
      else time_ok at downtime
    | Cut { links; at; duration; _ } ->
      if links = [] then Error "empty cut"
      else
        List.fold_left
          (fun acc l -> Result.bind acc (fun () -> check_link l))
          (time_ok at duration) links
    | Loss_burst { link; at; duration; rate } ->
      if rate < 0.0 || rate >= 1.0 then Error "loss rate must be in [0,1)"
      else
        Result.bind (time_ok at duration) (fun () ->
            match link with None -> Ok () | Some l -> check_link l)
    | Degrade { link; at; duration; latency; bandwidth } ->
      if latency <= 0.0 || bandwidth <= 0.0 then Error "factors must be positive"
      else Result.bind (time_ok at duration) (fun () -> check_link link)
  in
  List.fold_left (fun acc e -> Result.bind acc (fun () -> check_event e)) (Ok ()) plan

(* ---- application ----------------------------------------------------------- *)

(* Windows of different events may overlap on the same link.  Each effect is
   therefore tracked as a stack of active contributions per link: a cut is
   healed only when its last contributing window closes, overlapping loss
   windows combine to the worst (highest) rate, overlapping degradations to
   the slowest factors. *)
type applier = {
  net : Net.t;
  cut_refs : (int * int, int) Hashtbl.t;
  link_losses : (int * int, float list) Hashtbl.t;
  mutable global_losses : float list;
  degrades : (int * int, (float * float) list) Hashtbl.t;
}

let norm (a, b) = if a < b then (a, b) else (b, a)

(* [attrs] is only built while the recorder is on *)
let emit ap kind attrs =
  let m = Net.metrics ap.net in
  Obs.Metrics.incr m ~labels:[ ("kind", kind) ] "chaos.injected";
  let tr = Net.recorder ap.net in
  if Obs.Tracer.enabled tr then
    Obs.Tracer.instant tr ~time:(Net.now ap.net) ~cat:"chaos" ~attrs:(attrs ())
      ("chaos." ^ kind)

let emit_heal ap kind =
  Obs.Metrics.incr (Net.metrics ap.net) ~labels:[ ("kind", kind) ] "chaos.healed";
  let tr = Net.recorder ap.net in
  if Obs.Tracer.enabled tr then
    Obs.Tracer.instant tr ~time:(Net.now ap.net) ~cat:"chaos" ("chaos.heal." ^ kind)

let cut_link ap l =
  let k = norm l in
  let refs = Option.value ~default:0 (Hashtbl.find_opt ap.cut_refs k) in
  Hashtbl.replace ap.cut_refs k (refs + 1);
  if refs = 0 then Net.set_link_enabled ap.net (fst k) (snd k) false

let heal_link ap l =
  let k = norm l in
  match Hashtbl.find_opt ap.cut_refs k with
  | None -> ()
  | Some refs ->
    if refs <= 1 then begin
      Hashtbl.remove ap.cut_refs k;
      Net.set_link_enabled ap.net (fst k) (snd k) true
    end
    else Hashtbl.replace ap.cut_refs k (refs - 1)

let remove_once x xs =
  let rec go = function
    | [] -> []
    | y :: rest -> if y = x then rest else y :: go rest
  in
  go xs

let apply_link_loss ap l =
  let k = norm l in
  match Hashtbl.find_opt ap.link_losses k with
  | None | Some [] -> Net.set_link_loss ap.net (fst k) (snd k) None
  | Some rates ->
    Net.set_link_loss ap.net (fst k) (snd k) (Some (List.fold_left Float.max 0.0 rates))

let apply_global_loss ap =
  match ap.global_losses with
  | [] -> Net.set_loss_override ap.net None
  | rates -> Net.set_loss_override ap.net (Some (List.fold_left Float.max 0.0 rates))

let apply_degrade ap l =
  let k = norm l in
  match Hashtbl.find_opt ap.degrades k with
  | None | Some [] -> Net.set_link_degraded ap.net (fst k) (snd k) None
  | Some factors ->
    let worst =
      List.fold_left
        (fun (lat, bw) (lat', bw') -> (Float.max lat lat', Float.min bw bw'))
        (1.0, 1.0) factors
    in
    Net.set_link_degraded ap.net (fst k) (snd k) (Some worst)

let link_attr (a, b) = Obs.Event.S (Printf.sprintf "%d-%d" a b)

let fire ap = function
  | Crash { site; downtime; _ } ->
    if Net.site_up ap.net site then begin
      emit ap "crash" (fun () ->
          [ ("site", Obs.Event.I site); ("downtime", Obs.Event.F downtime) ]);
      Net.crash ap.net site;
      ignore
        (Net.schedule ap.net ~after:downtime (fun () ->
             emit_heal ap "crash";
             Net.restart ap.net site))
    end
    else
      Obs.Metrics.incr (Net.metrics ap.net) ~labels:[ ("kind", "crash") ] "chaos.skipped"
  | Cut { links; duration; label; _ } ->
    emit ap "cut" (fun () ->
        [ ("label", Obs.Event.S label); ("links", Obs.Event.I (List.length links)) ]);
    List.iter (cut_link ap) links;
    ignore
      (Net.schedule ap.net ~after:duration (fun () ->
           emit_heal ap "cut";
           List.iter (heal_link ap) links))
  | Loss_burst { link; duration; rate; _ } -> (
    match link with
    | None ->
      emit ap "loss" (fun () -> [ ("rate", Obs.Event.F rate) ]);
      ap.global_losses <- rate :: ap.global_losses;
      apply_global_loss ap;
      ignore
        (Net.schedule ap.net ~after:duration (fun () ->
             emit_heal ap "loss";
             ap.global_losses <- remove_once rate ap.global_losses;
             apply_global_loss ap))
    | Some l ->
      let k = norm l in
      emit ap "loss" (fun () -> [ ("rate", Obs.Event.F rate); ("link", link_attr k) ]);
      Hashtbl.replace ap.link_losses k
        (rate :: Option.value ~default:[] (Hashtbl.find_opt ap.link_losses k));
      apply_link_loss ap k;
      ignore
        (Net.schedule ap.net ~after:duration (fun () ->
             emit_heal ap "loss";
             Hashtbl.replace ap.link_losses k
               (remove_once rate (Option.value ~default:[] (Hashtbl.find_opt ap.link_losses k)));
             apply_link_loss ap k)))
  | Degrade { link; duration; latency; bandwidth; _ } ->
    let k = norm link in
    emit ap "degrade" (fun () ->
        [
          ("link", link_attr k);
          ("latency", Obs.Event.F latency);
          ("bandwidth", Obs.Event.F bandwidth);
        ]);
    Hashtbl.replace ap.degrades k
      ((latency, bandwidth) :: Option.value ~default:[] (Hashtbl.find_opt ap.degrades k));
    apply_degrade ap k;
    ignore
      (Net.schedule ap.net ~after:duration (fun () ->
           emit_heal ap "degrade";
           Hashtbl.replace ap.degrades k
             (remove_once (latency, bandwidth)
                (Option.value ~default:[] (Hashtbl.find_opt ap.degrades k)));
           apply_degrade ap k))

let apply net plan =
  (match validate (Net.topology net) plan with
  | Ok () -> ()
  | Error e -> invalid_arg ("Chaos.apply: " ^ e));
  let ap =
    {
      net;
      cut_refs = Hashtbl.create 16;
      link_losses = Hashtbl.create 16;
      global_losses = [];
      degrades = Hashtbl.create 16;
    }
  in
  List.iter
    (fun ev ->
      ignore (Engine.schedule_at (Net.engine net) ~at:(at_of ev) (fun () -> fire ap ev)))
    plan

(* ---- serialization --------------------------------------------------------- *)

let link_str (a, b) = Printf.sprintf "%d-%d" a b

let link_of_str s =
  match String.split_on_char '-' s with
  | [ a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some a, Some b -> Ok (a, b)
    | _ -> Error (Printf.sprintf "bad link %S" s))
  | _ -> Error (Printf.sprintf "bad link %S" s)

let event_to_string = function
  | Crash { site; at; downtime } ->
    Printf.sprintf "crash site=%d at=%.17g down=%.17g" site at downtime
  | Cut { links; at; duration; label } ->
    Printf.sprintf "cut at=%.17g dur=%.17g label=%s links=%s" at duration label
      (String.concat "," (List.map link_str links))
  | Loss_burst { link; at; duration; rate } ->
    Printf.sprintf "loss at=%.17g dur=%.17g rate=%.17g link=%s" at duration rate
      (match link with None -> "*" | Some l -> link_str l)
  | Degrade { link; at; duration; latency; bandwidth } ->
    Printf.sprintf "degrade at=%.17g dur=%.17g lat=%.17g bw=%.17g link=%s" at duration
      latency bandwidth (link_str link)

let to_string plan =
  String.concat "" (List.map (fun e -> event_to_string e ^ "\n") plan)

let parse_fields line =
  List.filter_map
    (fun tok ->
      if tok = "" then None
      else
        match String.index_opt tok '=' with
        | None -> Some (tok, "")
        | Some i ->
          Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))
    (String.split_on_char ' ' line)

let field fields name =
  match List.assoc_opt name fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %s" name)

let float_field fields name =
  Result.bind (field fields name) (fun v ->
      match float_of_string_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "bad float %s=%S" name v))

let int_field fields name =
  Result.bind (field fields name) (fun v ->
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "bad int %s=%S" name v))

let ( let* ) = Result.bind

let event_of_string line =
  let fields = parse_fields line in
  match fields with
  | ("crash", _) :: rest ->
    let* site = int_field rest "site" in
    let* at = float_field rest "at" in
    let* downtime = float_field rest "down" in
    Ok (Crash { site; at; downtime })
  | ("cut", _) :: rest ->
    let* at = float_field rest "at" in
    let* duration = float_field rest "dur" in
    let* label = field rest "label" in
    let* links_s = field rest "links" in
    let* links =
      List.fold_left
        (fun acc s ->
          let* acc = acc in
          let* l = link_of_str s in
          Ok (l :: acc))
        (Ok [])
        (String.split_on_char ',' links_s)
    in
    Ok (Cut { links = List.rev links; at; duration; label })
  | ("loss", _) :: rest ->
    let* at = float_field rest "at" in
    let* duration = float_field rest "dur" in
    let* rate = float_field rest "rate" in
    let* link_s = field rest "link" in
    let* link =
      if link_s = "*" then Ok None
      else
        let* l = link_of_str link_s in
        Ok (Some l)
    in
    Ok (Loss_burst { link; at; duration; rate })
  | ("degrade", _) :: rest ->
    let* at = float_field rest "at" in
    let* duration = float_field rest "dur" in
    let* latency = float_field rest "lat" in
    let* bandwidth = float_field rest "bw" in
    let* link_s = field rest "link" in
    let* link = link_of_str link_s in
    Ok (Degrade { link; at; duration; latency; bandwidth })
  | (kind, _) :: _ -> Error (Printf.sprintf "unknown event kind %S" kind)
  | [] -> Error "empty event"

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go acc n = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line = String.trim line in
      if line = "" || String.length line > 0 && line.[0] = '#' then go acc (n + 1) rest
      else begin
        match event_of_string line with
        | Ok e -> go (e :: acc) (n + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" n e)
      end
  in
  go [] 1 lines

let pp fmt plan =
  List.iter (fun e -> Format.fprintf fmt "%s@." (event_to_string e)) plan
