(** Parsed view of a scanned source file, for the semantic (AST) pass.

    The lexical rules run on blanked text ({!Source}); the semantic rules
    [R9]-[R13] need real structure: which functions a file defines, what
    each writes, who calls whom, and which values an interface exports.
    This module turns a {!Source.t} into a [compiler-libs] parsetree
    ([Parse.implementation] or [Parse.interface] — no type checking, no
    new opam dependencies).

    {!parse} takes [.ml] files, whose structure carries the effects;
    {!parse_interface} takes [.mli] files, for [R13]'s exports.  A file
    that fails to parse (which cannot happen for code the compiler
    accepts, but can for lexical-rule test fixtures) degrades gracefully:
    the semantic pass skips it and the lexical rules still apply. *)

type t = {
  source : Source.t;
  module_name : string;  (** ["Belief"] for [lib/inference/belief.ml]. *)
  structure : Parsetree.structure;
}

val module_name_of_path : string -> string
(** Capitalized basename without extension, the module the file defines. *)

val parse : Source.t -> t option
(** [None] for [.mli] files and for unparseable sources. *)

val parse_interface : Source.t -> Parsetree.signature option
(** [None] for anything but an [.mli] file and for unparseable sources. *)

val line_of : Location.t -> int
(** 1-based start line of a parsetree location. *)
