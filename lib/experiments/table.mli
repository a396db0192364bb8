(** Plain-text table rendering shared by the experiment harnesses: every
    experiment prints rows in the same aligned format so EXPERIMENTS.md can
    quote them directly. *)

type cell = S of string | I of int | F of float | F2 of float | Pct of float

val render : Format.formatter -> title:string -> header:string list -> cell list list -> unit
(** Column widths are computed from the contents; [F] prints with 4
    significant decimals, [F2] with 2, [Pct] as a percentage. *)
