type 'a t = {
  capacity : int;
  mutable buf : 'a option array; (* grows by doubling up to [capacity] *)
  mutable start : int; (* index of the oldest element *)
  mutable len : int;
  mutable evicted : int;
}

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { capacity; buf = [||]; start = 0; len = 0; evicted = 0 }

let capacity t = t.capacity
let length t = t.len
let evicted t = t.evicted

let push t x =
  if t.len = t.capacity then begin
    (* full, so [buf] has grown to [capacity]: overwrite the oldest slot *)
    t.buf.(t.start) <- Some x;
    t.start <- (t.start + 1) mod t.capacity;
    t.evicted <- t.evicted + 1
  end
  else begin
    (* nothing is evicted before the ring is full, so [start] is still 0 *)
    let size = Array.length t.buf in
    if t.len = size then begin
      let buf = Array.make (min t.capacity (max 64 (2 * size))) None in
      Array.blit t.buf 0 buf 0 size;
      t.buf <- buf
    end;
    t.buf.(t.len) <- Some x;
    t.len <- t.len + 1
  end

let iter f t =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    match t.buf.((t.start + i) mod cap) with
    | Some x -> f x
    | None -> assert false
  done

let to_list t =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) t;
  List.rev !acc

let clear t =
  t.buf <- [||];
  t.start <- 0;
  t.len <- 0;
  t.evicted <- 0
