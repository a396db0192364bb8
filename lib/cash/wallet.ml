type t = { mutable bills : Ecu.t list }

let create () = { bills = [] }
let add t e = t.bills <- e :: t.bills
let balance t = Ecu.total t.bills
let bills t = t.bills
let count t = List.length t.bills

(* exact-subset-sum with largest-first ordering; bill counts in agent
   wallets are small, so exponential worst case is irrelevant in practice *)
let find_exact bills amount =
  let sorted = List.sort (fun a b -> compare b.Ecu.amount a.Ecu.amount) bills in
  let rec go chosen remaining target =
    if target = 0 then Some chosen
    else
      match remaining with
      | [] -> None
      | b :: rest ->
        if b.Ecu.amount > target then go chosen rest target
        else (
          match go (b :: chosen) rest (target - b.Ecu.amount) with
          | Some r -> Some r
          | None -> go chosen rest target)
  in
  go [] sorted amount

let remove_serials t serials =
  t.bills <- List.filter (fun b -> not (List.mem b.Ecu.serial serials)) t.bills

let take_exact t ~amount =
  if amount <= 0 then None
  else
    match find_exact t.bills amount with
    | None -> None
    | Some chosen ->
      remove_serials t (List.map (fun b -> b.Ecu.serial) chosen);
      Some chosen

let take_at_least t ~amount =
  if amount <= 0 then None
  else if balance t < amount then None
  else
    match find_exact t.bills amount with
    | Some chosen ->
      remove_serials t (List.map (fun b -> b.Ecu.serial) chosen);
      Some chosen
    | None ->
      (* no exact subset: take smallest bills until covered, which keeps the
         overshoot at most one bill *)
      let sorted = List.sort (fun a b -> compare a.Ecu.amount b.Ecu.amount) t.bills in
      let rec cover acc sum = function
        | [] -> acc
        | b :: rest -> if sum >= amount then acc else cover (b :: acc) (sum + b.Ecu.amount) rest
      in
      let chosen = cover [] 0 sorted in
      remove_serials t (List.map (fun b -> b.Ecu.serial) chosen);
      Some chosen

let to_folder t folder =
  List.iter (fun b -> Tacoma_core.Folder.enqueue folder (Ecu.wire b)) (List.rev t.bills);
  t.bills <- []

let of_folder folder =
  let t = create () in
  let rec drain () =
    match Tacoma_core.Folder.pop folder with
    | None -> ()
    | Some elem ->
      (match Ecu.of_wire elem with Ok e -> add t e | Error _ -> ());
      drain ()
  in
  drain ();
  t
