(** The [expr] sublanguage: arithmetic, comparison, boolean and ternary
    expressions.

    Like Tcl, [expr] performs its own [$var] and [\[cmd\]] substitution —
    that is why [if {$x > 0} ...] works even though braces suppress
    substitution — so evaluation takes the two substitution callbacks from
    the interpreter.

    Compilation is split from evaluation: {!compile} does the lexing and
    parsing once, producing an immutable {!ast} whose variable and command
    references stay late-bound; {!eval_ast} walks it against the current
    scope.  The interpreter caches compiled expressions keyed by source
    string, so loop conditions and [expr] bodies pay the parser only once.

    [&&], [||] and [?:] are lazy: the skipped operand is never evaluated,
    so a side-effecting [\[cmd\]] in the untaken arm does not run. *)

exception Error of string

type num = Int of int | Float of float | Str of string

type ast
(** A compiled expression: immutable pure data, safe to cache and share
    between interpreter instances. *)

val compile : string -> ast
(** Lex and parse an expression source once.  Unknown functions and arity
    mistakes are rejected here, at compile time.
    @raise Error on syntax errors. *)

val eval_ast :
  lookup:(string -> string) ->
  eval_cmd:(string -> string) ->
  ast ->
  string
(** Evaluate a compiled expression to its string rendering.
    @raise Error on type errors (caught by the interpreter and turned into
    a script-level error). *)

val eval_ast_bool :
  lookup:(string -> string) ->
  eval_cmd:(string -> string) ->
  ast ->
  bool
(** Truth-value fast path: skips rendering the result to a string —
    the common case for [if]/[while]/[for] conditions. *)

val eval :
  lookup:(string -> string) ->
  eval_cmd:(string -> string) ->
  string ->
  string
(** [compile] + [eval_ast] in one shot, no caching. *)
