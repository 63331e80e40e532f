(** The semantic (AST-pass) rule set, [R9]-[R13].

    These rules run on parsed structure and interfaces ({!Ast_source}),
    per-function effect summaries ({!Effects}) and the cross-module call
    graph ({!Callgraph}), complementing the lexical rules [R1]-[R8]:

    - [R9] no-unsynchronized-shared-mutation: a static race detector.
      Any function transitively reachable from a
      [Utc_parallel.Pool.map_list] job closure (including
      [Harness.run_many]'s) that writes escaping mutable state — a
      module-level binding, a handle resolved out of a registry, or a
      value of unknown provenance — without holding a [Mutex] is
      flagged at the job site.  [Atomic] operations and per-run
      [Sink] handles (whose writers lock internally) pass.
    - [R10] pure-inference: [lib/inference], [lib/model] and
      [lib/utility] must be transitively free of IO and of unguarded
      global mutation.  Mutation of provably local state is fine; so
      is telemetry through [Atomic] counters and mutex-guarded
      [Metrics]/[Sink] calls — determinism, not allocation discipline,
      is the property defended.  Wall-clock reads are [R2]'s business
      and are not re-flagged here.
    - [R11] hotpath-alloc: a function annotated [(* lint:hotpath *)]
      must not allocate closures, list cells, [@]/[List.append],
      string concatenation, or record/array literals, nor serialise
      with [Marshal.to_string]/[to_bytes]/[to_buffer]/[to_channel], in
      loop context (a [for]/[while] body, a local [let rec], its own
      recursion, or a closure handed to a known iterator).
    - [R12] no-swallowed-exceptions: [try ... with _ ->] discards the
      exception it catches — match something, or bind and re-raise.
    - [R13] exported-value-has-reader: every top-level [val] of a
      [lib/**/*.mli] is read by an [.ml] under [lib/], [bin/] or
      [examples/] in another module.  A read is an identifier, resolved
      by its last two components with the file's top-level module
      aliases expanded, or a bare name under a local open; record
      fields do not count, and neither does any other path (tests,
      benchmarks).  The finding sits on the [val]'s line.  The rule
      needs the whole program in one scan: run on [lib/] alone, it
      flags every value only [bin/] reads.

    Findings are silenced exactly like the lexical rules: inline
    [(* lint:allow R9 -- why *)] or an allowlist entry. *)

type t = { id : string; name : string; doc : string }

val all : t list
(** Metadata for the five semantic rules, in id order. *)

val check : Source.t list -> Diagnostic.t list
(** Run [R9]-[R13] over the scanned file set (parse trees, summaries and
    the call graph are built internally — the set should be the whole
    scan so cross-module edges link). Unsorted, unfiltered; the
    {!Engine} applies suppressions, the allowlist, and the final sort. *)
