(** Finding renderers: the classic text lines, a plain JSON array, and
    SARIF 2.1.0 for CI annotation upload.

    All three are deterministic byte-for-byte given the same (sorted)
    diagnostic list — no timestamps, no absolute paths, no environment.
    The SARIF run carries the full rule metadata ([R1]-[R13]) in the tool
    driver so viewers can show rule docs next to each finding. *)

type format = Text | Json | Sarif

val format_of_string : string -> format option
(** ["text"], ["json"], ["sarif"]. *)

val render : format -> Diagnostic.t list -> string
(** The complete report, newline-terminated (empty string for [Text]
    with no findings; [Json]/[Sarif] always emit a document). *)
