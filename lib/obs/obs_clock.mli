(** The process's single raw wall-clock reader.

    Everything else in the repository that needs wall time — the
    {!Metrics.span} profiler here, benchmark and experiment timing in
    [Utc_experiments] — calls this one auditable entry point; the
    determinism linter (rule R2) forbids
    [Unix.gettimeofday]/[Unix.time]/[Sys.time] everywhere else in [lib/].

    Wall-clock values are profiling data only. They must never feed packet
    timestamps, event scheduling, RNG seeding, or anything a simulation
    result — or the deterministic telemetry journal — depends on. *)

val now : unit -> float
(** Seconds since the Unix epoch, for elapsed-time measurement only. *)

val elapsed_since : float -> float
(** [elapsed_since start] is [now () -. start]. *)
