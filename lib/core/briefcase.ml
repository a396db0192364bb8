(* Folders sorted by name, which is also their wire order.  A briefcase
   holds a handful of folders, so a list is cheaper than a hash table to
   build, copy and walk on every message. *)
type t = { mutable folders : (string * Folder.t) list }

let host_folder = "HOST"
let contact_folder = "CONTACT"
let code_folder = "CODE"
let code_ref_folder = "CODE-REF"
let sites_folder = "SITES"
let trace_folder = "TRACE"

let create () = { folders = [] }

let folder_opt t name =
  let rec find = function
    | [] -> None
    | (n, f) :: rest ->
      let c = String.compare n name in
      if c = 0 then Some f else if c > 0 then None else find rest
  in
  find t.folders

let folder t name =
  match folder_opt t name with
  | Some f -> f
  | None ->
    let f = Folder.create () in
    let rec insert = function
      | ((n, _) as x) :: rest when String.compare n name < 0 -> x :: insert rest
      | l -> (name, f) :: l
    in
    t.folders <- insert t.folders;
    f

let mem t name = Option.is_some (folder_opt t name)
let remove t name = t.folders <- List.filter (fun (n, _) -> not (String.equal n name)) t.folders
let names t = List.map fst t.folders
let copy t = { folders = List.map (fun (n, f) -> (n, Folder.copy f)) t.folders }
let clear t = t.folders <- []

let set t name v = Folder.replace (folder t name) [ v ]
let find_opt t name = Option.bind (folder_opt t name) Folder.peek

let get t name =
  match find_opt t name with Some v -> v | None -> raise Not_found

let byte_size t =
  (* mirrors [serialize]: 4-byte folder count, then per folder the encoded
     name and encoded element list *)
  List.fold_left
    (fun acc (name, f) ->
      acc + Codec.encoded_size name + 4
      + Folder.fold (fun a e -> a + Codec.encoded_size e) 0 f)
    4 t.folders

(* 4-byte folder count, then folders in name order for deterministic wires *)
let serialize t =
  let buf = Buffer.create 256 in
  Codec.encode_u32 buf (List.length t.folders);
  List.iter
    (fun (name, f) ->
      Codec.encode_string buf name;
      Codec.encode_strings buf (Folder.to_list f))
    t.folders;
  Buffer.contents buf

let deserialize s =
  let r = Codec.reader s in
  let n = Codec.read_u32 r in
  let rec read i acc =
    if i = n then List.rev acc
    else
      let name = Codec.read_string r in
      read (i + 1) ((name, Folder.of_list (Codec.read_strings r)) :: acc)
  in
  (* [serialize] writes each name once, in order; on any other wire the last
     folder of a name wins *)
  let[@tail_mod_cons] rec last_wins = function
    | (a, _) :: ((b, _) :: _ as rest) when String.equal a b -> last_wins rest
    | x :: rest -> x :: last_wins rest
    | [] -> []
  in
  let by_name (a, _) (b, _) = String.compare a b in
  { folders = last_wins (List.stable_sort by_name (read 0 [])) }

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (name, f) ->
      Format.fprintf fmt "%s: [%s]@," name
        (String.concat "; " (List.map (Printf.sprintf "%S") (Folder.to_list f))))
    t.folders;
  Format.fprintf fmt "@]"
