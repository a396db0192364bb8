module Folder = Tacoma_core.Folder
module Briefcase = Tacoma_core.Briefcase
module Cabinet = Tacoma_core.Cabinet

type row = {
  elements : int;
  folder_compares : float;
  move_bytes : int;
  cabinet_inserts : int;
}

let element i = Printf.sprintf "element-%08d-%s" i (String.make 16 'x')

let measure n =
  let elems = List.init n element in
  let folder = Folder.of_list elems in
  (* look for elements spread across the folder, including a miss *)
  let probes = [ element 0; element (n / 2); element (n - 1); "absent-element" ] in
  (* [Folder.contains] scans head first and stops at the first match; a
     miss compares every element *)
  let scanned p =
    match List.find_index (String.equal p) (Folder.to_list folder) with
    | Some i -> i + 1
    | None -> Folder.length folder
  in
  let folder_compares =
    float_of_int (List.fold_left (fun a p -> a + scanned p) 0 probes)
    /. float_of_int (List.length probes)
  in
  (* either way the contents travel as one encoded briefcase, decoded at
     the destination; a cabinet must also rebuild its index there *)
  let bc = Briefcase.create () in
  Folder.replace (Briefcase.folder bc "F") elems;
  let wire = Briefcase.serialize bc in
  let arrived = Briefcase.deserialize wire in
  let rebuilt = Cabinet.create () in
  Cabinet.replace rebuilt "F" (Folder.to_list (Briefcase.folder arrived "F"));
  {
    elements = n;
    folder_compares;
    move_bytes = 2 * String.length wire;
    cabinet_inserts = Cabinet.size rebuilt "F";
  }

let default_sizes = [ 256; 1024; 4096; 16384 ]

let run ?(sizes = default_sizes) () = List.map measure sizes

let print_table fmt =
  let rows = run () in
  Table.render fmt
    ~title:"E3 folders vs cabinets: the mobility/access trade (counted work)"
    ~header:
      [
        "elements"; "folder compares/lookup"; "cabinet probes/lookup"; "bytes coded/move";
        "cabinet index inserts/move";
      ]
    (List.map
       (fun r ->
         [
           Table.I r.elements;
           Table.F2 r.folder_compares;
           (* a cabinet lookup is one probe of the folder's hash index *)
           Table.I 1;
           Table.I r.move_bytes;
           Table.I r.cabinet_inserts;
         ])
       rows)
