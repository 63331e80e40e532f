(** The determinism rule set.

    The simulator's inference loop (belief-state interpreters replaying the
    ground-truth event ordering) is only sound if a run is a pure function
    of its seed.  Each rule below rejects a construct that historically
    breaks that property.  All checks are lexical — they run on blanked
    source text (see {!Source}) and err on the side of flagging; a finding
    that is genuinely safe is silenced with an inline
    [(* lint:allow <rule> -- why *)] or an {!Allowlist} entry.

    - [R1] no-ambient-randomness: any use of [Stdlib.Random] (including
      [Random.self_init]).  All randomness must flow through the seeded,
      splittable [Utc_sim.Rng].
    - [R2] no-wall-clock: [Unix.gettimeofday]/[Unix.time]/[Sys.time] inside
      [lib/].  Benchmark timing goes through [Utc_obs.Obs_clock],
      the single allowlisted reader.
    - [R3] no-polymorphic-compare: [Stdlib.compare] anywhere, and a bare
      [compare] passed to a [List]/[Array] sort function.  Polymorphic
      compare on floats or [Timebase.t] keys silently depends on
      representation; use [Float.compare]/[Timebase.compare]/etc.
    - [R4] no-hash-order-dependence: [Hashtbl.iter]/[Hashtbl.fold] whose
      surrounding code (a 20-line window) shows no intervening sort, and
      any use of [Hashtbl.hash] (an ambient tie-breaker).
    - [R5] mli-coverage: every [lib/**/*.ml] has a sibling [.mli], so the
      deterministic surface of a module is explicit and reviewable.
    - [R6] no-stdout-in-lib: [print_*]/[Printf.printf]/[Format.printf]
      inside [lib/]; libraries return data or take a formatter.
    - [R7] no-bare-domains: any use of the [Domain] module ([Domain.self],
      [Domain.spawn], [Domain.DLS], ...) outside [lib/parallel].
      Domain-identity-keyed behavior and ad-hoc spawning make results
      depend on the schedule; parallelism goes through
      [Utc_parallel.Pool]'s deterministic partition/merge.
    - [R8] no-raw-output: [print_*]/[Printf.printf]/[Format.printf] and
      process-global [Logs] configuration ([Logs.set_reporter],
      [Logs.set_level]) anywhere outside the presentation layers
      [bin/], [bench/], [lib/stats/] and [lib/obs/].  Broader than [R6]:
      telemetry is recorded through [Utc_obs]; human-facing text takes a
      formatter from the caller. *)

type t = {
  id : string;
  name : string;
  doc : string;
  check : Source.t -> Diagnostic.t list;
}

val all : t list
(** All eight rules, in id order. [R5]'s per-file check is a no-op; its
    real check is {!mli_coverage}, which needs the whole file set. *)

val find : string -> t option
(** Look up a rule by id. *)

val mli_coverage : paths:string list -> Diagnostic.t list
(** The file-set half of [R5]: a diagnostic at line 1 of every
    [lib/**/*.ml] whose sibling [.mli] is absent from [paths]. *)
