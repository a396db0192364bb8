(** Briefcases (paper §2): the named-folder collection that accompanies an
    agent so "its future actions can depend on its past ones".

    A briefcase is also the argument list of a {e meet}: "the specified
    briefcase is analogous to an argument list (with each folder containing
    the value of one argument)". *)

type t

(** Conventional folder names from the paper: ["HOST"] (destination site for
    [rexec]), ["CONTACT"] (agent to execute there), ["CODE"] (agent source
    text), ["SITES"] (visited sites, for [diffusion]). *)

val host_folder : string

val contact_folder : string

val code_folder : string

val code_ref_folder : string
(** System folder replacing [code_folder] on the wire when the kernel's
    content-addressed code cache is enabled: it carries the CODE payload's
    digest instead of the payload itself ({!Codecache}).  Resolved — and
    removed — by the receiving place before the activation runs, so agents
    never observe it. *)

val sites_folder : string

val trace_folder : string
(** System folder carrying the flight-recorder span context ("tN.sM")
    across migrations, so a journey's activations form one causal tree.
    Written only while tracing is enabled — with the recorder off the
    briefcase wire image is untouched. *)

val create : unit -> t

val folder : t -> string -> Folder.t
(** The named folder, created empty on first access. *)

val folder_opt : t -> string -> Folder.t option
val mem : t -> string -> bool
val remove : t -> string -> unit
val names : t -> string list
(** Sorted. *)

val copy : t -> t
(** Deep copy: cloning an agent must not alias its folders. *)

val clear : t -> unit

(** {1 Single-value convenience}

    Many protocol folders hold exactly one element (HOST, CONTACT ...). *)

val set : t -> string -> string -> unit
(** Replace the folder's contents with one element. *)

val find_opt : t -> string -> string option
(** Head element of the folder, if any.  (Stdlib naming convention shared
    with {!Folder} and {!Cabinet}: [find_opt] returns an option, [get]
    raises.) *)

val get : t -> string -> string
(** @raise Not_found when the folder is absent or empty. *)

(** {1 Wire format} *)

val byte_size : t -> int
(** Exact serialised size: what migration costs on the network. *)

val serialize : t -> string
val deserialize : string -> t
(** @raise Codec.Malformed on corrupt input. *)

val pp : Format.formatter -> t -> unit
