(** Exporters for the flight recorder.

    - [jsonl]: one JSON object per event, newline-separated — greppable and
      streamable.
    - [chrome]: the Chrome trace-event (catapult) array format; load the
      file at chrome://tracing or https://ui.perfetto.dev.  Spans map to
      B/E duration events with [pid] = site and [tid] = span id; the span /
      parent / trace ids travel in [args], so the causal tree of a journey
      is reconstructible from the file alone. *)

val jsonl : Event.t list -> string
val chrome : Event.t list -> string

val pp_events : Format.formatter -> Event.t list -> unit
(** Human-readable dump, one event per line. *)

val write_file : string -> string -> unit
(** [write_file path contents] *)
