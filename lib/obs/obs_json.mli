(** Minimal deterministic JSON rendering for the telemetry layer.

    No parsing, no nesting beyond flat objects: just enough to emit
    journal lines and registry snapshots whose bytes are a pure function
    of the recorded values. Field order is the caller's list order. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

val number : float -> string
(** Fixed [%.12g] rendering; [nan] becomes [null], infinities clamp to
    [±1e308] so output stays parseable. *)

val quote : string -> string
(** A JSON string literal: the body escaped (quotes, backslashes,
    control chars) and wrapped in double quotes. *)

val render : value -> string

val obj : (string * value) list -> string
(** A one-line JSON object, fields in list order. *)
