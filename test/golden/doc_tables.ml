(* doc_tables DOC GOLDEN: exit 1 unless every table block of DOC appears
   verbatim, as whole lines, in GOLDEN.  A block starts at a "== title =="
   line and runs to the next blank line, title line or code fence. *)

let read path = In_channel.with_open_bin path In_channel.input_all

let is_title l =
  String.length l > 6 && String.starts_with ~prefix:"== " l && String.ends_with ~suffix:" ==" l

let ends_block l = l = "" || is_title l || String.starts_with ~prefix:"```" l

let rec blocks = function
  | [] -> []
  | l :: rest when is_title l ->
    let rec take acc = function
      | x :: xs when not (ends_block x) -> take (x :: acc) xs
      | xs -> (List.rev acc, xs)
    in
    let body, rest = take [] rest in
    (l :: body) :: blocks rest
  | _ :: rest -> blocks rest

(* naive substring search: both inputs are a few kilobytes *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let () =
  let doc = Sys.argv.(1) and golden = Sys.argv.(2) in
  let text = "\n" ^ read golden in
  let found = blocks (String.split_on_char '\n' (read doc)) in
  let quoted b = contains text ("\n" ^ String.concat "\n" b ^ "\n") in
  let missing = List.filter (fun b -> not (quoted b)) found in
  let report b = Printf.eprintf "%s: table not in %s: %s\n" doc golden (List.hd b) in
  List.iter report missing;
  if found = [] then Printf.eprintf "%s: no \"== title ==\" table blocks\n" doc;
  if found = [] || missing <> [] then exit 1
