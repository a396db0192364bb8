(** E3 — folders move cheaply, cabinets access cheaply (paper §2).

    Claim: "elaborate index structures are not suitable for implementing the
    folders that accompany agents", while "file cabinets can be implemented
    using techniques that optimize access times even if this increases the
    cost of moving the file cabinet from one site to another."

    We count the work on both sides of the trade at several sizes, so the
    table is the same on every host: membership lookups (elements a
    {!Tacoma_core.Folder.contains} scan compares, against the one hash probe
    of a cabinet) and moves (bytes encoded and decoded, plus the index
    inserts a cabinet needs at the destination; a folder has no index).
    Host-time costs of the same operations are micro-benchmarks in
    [bench/main.exe].  Expected shape: folder lookups grow with n while a
    cabinet lookup stays one probe; a cabinet move does the folder's coding
    work plus one index insert per element. *)

type row = {
  elements : int;
  folder_compares : float;  (** mean elements compared per lookup *)
  move_bytes : int;         (** bytes encoded plus bytes decoded per move *)
  cabinet_inserts : int;    (** index inserts to rebuild a moved cabinet *)
}

val run : ?sizes:int list -> unit -> row list
val print_table : Format.formatter -> unit
