(** Serialise a whole briefcase into a folder of another briefcase (the
    paper's "folders can themselves store agents").  Used by rear guards to
    carry their relaunch snapshot. *)

val put : Tacoma_core.Briefcase.t -> Tacoma_core.Briefcase.t -> unit
(** [put carrier snapshot]. *)

val take : Tacoma_core.Briefcase.t -> Tacoma_core.Briefcase.t
(** @raise Tacoma_core.Kernel.Agent_error when absent,
    @raise Tacoma_core.Codec.Malformed when corrupt. *)
