type t = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
  mutable byte_hops : int;
  metrics : Obs.Metrics.t; (* holds the per-link bytes, as net.link.bytes *)
}

let create metrics = { sent = 0; delivered = 0; dropped = 0; bytes = 0; byte_hops = 0; metrics }

let record_send t ~bytes ~hops =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + bytes;
  t.byte_hops <- t.byte_hops + (bytes * hops)

let record_delivery t = t.delivered <- t.delivered + 1
let record_drop t = t.dropped <- t.dropped + 1

let link_label a b =
  let a, b = if a < b then (a, b) else (b, a) in
  string_of_int a ^ "-" ^ string_of_int b

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let bytes_sent t = t.bytes
let byte_hops t = t.byte_hops

let link_bytes t a b =
  Obs.Metrics.counter t.metrics ~labels:[ ("link", link_label a b) ] "net.link.bytes"
