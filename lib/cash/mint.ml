module Sha256 = Tacoma_util.Sha256
module Hexutil = Tacoma_util.Hexutil
module Rng = Tacoma_util.Rng

type failure = Forged | Double_spent

let failure_name = function Forged -> "forged" | Double_spent -> "double-spent"

type t = {
  secret : string;
  rng : Rng.t;
  live : (string, int) Hashtbl.t; (* serial -> amount *)
}

let create ?(seed = 7321L) ~secret () =
  { secret; rng = Rng.create seed; live = Hashtbl.create 64 }

let sign t ~amount ~serial =
  Sha256.hmac_hex ~key:t.secret (Printf.sprintf "ecu|%d|%s" amount serial)

let issue t ~amount =
  if amount <= 0 then invalid_arg "Mint.issue: non-positive amount";
  let serial = Hexutil.encode (Rng.bytes t.rng 16) in
  Hashtbl.replace t.live serial amount;
  { Ecu.amount; serial; signature = sign t ~amount ~serial }

let signature_valid t (e : Ecu.t) =
  String.equal (sign t ~amount:e.Ecu.amount ~serial:e.Ecu.serial) e.Ecu.signature

let live t (e : Ecu.t) =
  match Hashtbl.find_opt t.live e.Ecu.serial with
  | Some amount -> amount = e.Ecu.amount
  | None -> false

let check t e = if not (signature_valid t e) then Some Forged
  else if not (live t e) then Some Double_spent
  else None

let retire t (e : Ecu.t) = Hashtbl.remove t.live e.Ecu.serial

let validate_and_reissue t e =
  match check t e with
  | Some f -> Error f
  | None ->
    retire t e;
    Ok (issue t ~amount:e.Ecu.amount)

let split t e ~parts =
  if parts = [] || List.exists (fun p -> p <= 0) parts then
    invalid_arg "Mint.split: parts must be positive";
  if List.fold_left ( + ) 0 parts <> e.Ecu.amount then
    invalid_arg "Mint.split: parts must sum to the bill amount";
  match check t e with
  | Some f -> Error f
  | None ->
    retire t e;
    Ok (List.map (fun amount -> issue t ~amount) parts)

let merge t es =
  match es with
  | [] -> invalid_arg "Mint.merge: no bills"
  | _ -> (
    (* atomic: verify everything before retiring anything; also reject
       duplicate serials within the batch (spending a copy against itself) *)
    let serials = List.map (fun e -> e.Ecu.serial) es in
    let distinct = List.sort_uniq compare serials in
    if List.length distinct <> List.length serials then Error Double_spent
    else
      match List.find_map (check t) es with
      | Some f -> Error f
      | None ->
        List.iter (retire t) es;
        Ok (issue t ~amount:(Ecu.total es)))

let redeem t e =
  match check t e with
  | Some f -> Error f
  | None ->
    retire t e;
    Ok e.Ecu.amount

let outstanding t = Hashtbl.fold (fun _ amount acc -> acc + amount) t.live 0
