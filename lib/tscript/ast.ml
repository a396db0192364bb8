(* The AST is parametric over the interpreter's command-function type so
   each command node can carry a monomorphic inline cache (the interpreter
   instantiates ['fn] with its own function type; the parser never touches
   the slot).  See {!command} for the cache discipline. *)

type 'fn fragment =
  | Lit of string
  | Var of string
  | VarElem of string * 'fn fragment list
  | Cmd of 'fn script

and 'fn word = Braced of string | Frags of 'fn fragment list

and 'fn command = {
  words : 'fn word list;
  (* Inline command cache: the resolved command function, valid only for
     the interpreter [c_id] while its command table is at [c_epoch].
     Cached ASTs are shared between interpreters, so both stamps are
     checked before the slot is trusted. *)
  mutable c_id : int;
  mutable c_epoch : int;
  mutable c_fn : 'fn option;
}

and 'fn script = 'fn command list

let command words = { words; c_id = -1; c_epoch = -1; c_fn = None }
