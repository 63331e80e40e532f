(** Per-function effect summaries, extracted from the parsetree.

    One {!summary} per top-level value binding (submodule bindings
    included).  A summary records, syntactically:

    - {b writes}: every raw mutation — [r := e], [x.f <- e],
      [a.(i) <- e], and mutating stdlib calls ([Hashtbl.replace],
      [Buffer.add_*], [Queue.push], [Array.fill], ...) — together with
      the {e root} of the mutated value (see {!root});
    - {b io}: console/file/channel/process IO primitives reached
      directly ([print_*], [output_*], [open_*], [Sys.command], ...);
      wall-clock reads are excluded — rule [R2] owns those;
    - {b synchronization}: whether the body takes a [Mutex] (its writes
      then count as guarded) and whether it uses [Atomic];
    - {b calls}: every applied or mentioned identifier, with the root of
      each argument, so the {!Callgraph} can link summaries and
      propagate parameter writes one level;
    - {b pool jobs}: the [~f] closures handed to
      [Utc_parallel.Pool.map_list] — the entry point of the [R9] race
      detector;
    - {b allocation shapes} occurring in loop context (a [for]/[while]
      body, the body of a local [let rec], a recursive top-level
      binding, or a closure passed to a known iterator like [List.map])
      — the [R11] hot-path inventory;
    - {b freshness}: whether the function returns a freshly allocated
      value, so [let h = Pheap.create ()] classifies [h] as local while
      [let g = Metrics.labeled fam l] (a handle into a process-global
      registry) stays suspect.

    The analysis is deliberately shallow where shallowness errs on the
    side of flagging: a write whose root cannot be proven local is
    reported, and the finding is silenced with the same
    [(* lint:allow R9 -- why *)] machinery as the lexical rules. *)

type root =
  | Fresh  (** Bound to a provably fresh allocation — never shared. *)
  | Param of string  (** A parameter of the enclosing top-level binding. *)
  | Global of string
      (** A module-level binding of this file, or a qualified path —
          process-shared state. *)
  | Call_result of string
      (** Bound to the result of calling the named function; local iff
          that function returns fresh state ({!Callgraph} resolves). *)
  | Derived of string
      (** Bound locally but to a value of unknown provenance (a match
          binding, a closure parameter, ...). *)
  | Opaque  (** Not reducible to an identifier. *)

type write = {
  w_line : int;
  w_target : string;  (** Printable root, e.g. ["g"] or ["Metrics.tbl"]. *)
  w_what : string;  (** The operation, e.g. [":="] or ["Hashtbl.replace"]. *)
  w_root : root;
}

type call = {
  c_path : string;
      (** Dotted path as written, with per-file module aliases expanded:
          ["Utc_obs.Metrics.set_gauge"]. *)
  c_line : int;
  c_args : (Asttypes.arg_label * root) list;
}

type alloc = { a_line : int; a_what : string }

type job = { j_line : int; j_calls : call list; j_writes : write list }
(** One [~f] argument of a pool-map call site. *)

type freshness = string list option
(** [None] — does not return fresh state; [Some []] — definitely fresh;
    [Some deps] — fresh iff every named dependency returns fresh. *)

type summary = {
  s_file : string;
  s_module : string;  (** Innermost enclosing module name. *)
  s_name : string;
  s_line : int;
  s_params : (Asttypes.arg_label * string) list;
      (** Outermost fun-chain parameters, in order. *)
  s_writes : write list;
  s_io : (string * int) list;
  s_guarded : bool;  (** Takes [Mutex.lock]/[Mutex.protect] somewhere. *)
  s_uses_atomic : bool;
  s_calls : call list;
  s_allocs : alloc list;  (** Loop-context allocations only. *)
  s_pool_jobs : job list;
  s_hotpath : bool;  (** Annotated [(* lint:hotpath *)]. *)
  s_constructs : freshness;
}

val hof_names : string list
(** Module.function suffixes treated as iterators for loop context. *)

val pool_entry_names : string list
(** Call suffixes whose [~f] argument is a parallel job closure. *)

val summarize : Ast_source.t -> summary list
(** All top-level (and submodule-level) value bindings, in file order. *)
