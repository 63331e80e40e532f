(** Orchestration: file discovery, rule application, finding filters.

    The engine walks the requested roots, scans every [.ml]/[.mli]
    (skipping [_build] and dot-directories), and runs two passes: the
    lexical rules from {!Rules.all} (plus the file-set [R5] check) on the
    blanked text, and the semantic rules from {!Rules_sem} ([R9]-[R13])
    on the parsed file set — parsing the whole set at once so the call
    graph links across modules. Findings from both passes are filtered
    identically: an {!Allowlist} entry or an inline {!Suppress} comment
    silences a semantic finding exactly like a lexical one. Results are
    sorted with {!Diagnostic.compare}, so the report is independent of
    directory enumeration order. *)

val discover : roots:string list -> string list
(** All [.ml]/[.mli] files under the given files-or-directories, as sorted
    normalized relative paths. Directories named [_build] or starting with
    ['.'] are skipped. Nonexistent roots raise [Failure]. *)

val run_sources : allowlist:Allowlist.t -> Source.t list -> Diagnostic.t list
(** Apply every rule to the given scanned sources (plus [R5] over their
    path set), filter, and sort. Pure: used by the test-suite with
    in-memory fixtures. *)

val run : allowlist:Allowlist.t -> roots:string list -> Diagnostic.t list
(** [discover], load, and [run_sources]. *)
