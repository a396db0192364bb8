exception Malformed of string

let encode_u32 buf n =
  if n < 0 then raise (Malformed "negative length");
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (n land 0xFF))

let encode_string buf s =
  encode_u32 buf (String.length s);
  Buffer.add_string buf s

let encode_strings buf l =
  encode_u32 buf (List.length l);
  List.iter (encode_string buf) l

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }

let read_u32 r =
  if r.pos + 4 > String.length r.src then raise (Malformed "truncated length");
  let b i = Char.code r.src.[r.pos + i] in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  r.pos <- r.pos + 4;
  n

let read_string r =
  let n = read_u32 r in
  if r.pos + n > String.length r.src then raise (Malformed "truncated string");
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let read_strings r =
  let n = read_u32 r in
  if n > String.length r.src - r.pos then raise (Malformed "implausible count");
  List.init n (fun _ -> read_string r)

let encoded_size s = 4 + String.length s
