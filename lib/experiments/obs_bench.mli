(** Overhead accounting for the telemetry layer ([BENCH_obs.json]).

    Runs the harness workload with telemetry off and on, measures the
    per-call cost of the disabled recording guard in a tight loop, and
    reports:

    - [enabled_overhead_percent]: measured wall-time cost of recording
      metrics plus the journal, relative to the telemetry-off run;
    - [disabled_overhead_percent]: estimated cost of the instrumentation
      left in hot paths when telemetry is off — the number of guarded
      calls times the measured per-call guard cost, relative to the
      telemetry-off wall time. This is the figure the <2% acceptance
      bound applies to;
    - [labeled_overhead_ratio]: per-call cost of an enabled increment
      through a cached labeled-family child, relative to a plain
      counter. Bound: ≤2x — labels must not tax the hot path;
    - [span_ns] / [span_alloc_words]: per-call wall cost and minor-heap
      allocation of an enabled profiler span (path push/pop, two clock
      reads, a [Gc.quick_stat] pair, locked accumulate). Bounds: ≤10 µs
      and ≤512 minor words per span — generous, since spans wrap phases
      rather than instructions, but loud on order-of-magnitude
      regressions.

    {!pp_report} marks a broken bound EXCEEDS without failing; CI's
    "Telemetry overhead benchmark" step fails on any of the four.

    Leaves both the metrics registry and the sink disabled and reset. *)

type report = {
  seed : int;
  duration : float;  (** simulated seconds per workload run *)
  repeats : int;
  disabled_seconds : float;  (** best-of-[repeats] wall, telemetry off *)
  enabled_seconds : float;  (** wall with metrics + sink enabled *)
  enabled_overhead_percent : float;
  instrumentation_calls : int;  (** guarded recording calls in one run *)
  events_recorded : int;
  events_dropped : int;
  noop_ns : float;  (** one disabled recording call, nanoseconds *)
  disabled_overhead_percent : float;
  counter_ns : float;  (** one enabled plain-counter incr, nanoseconds *)
  labeled_ns : float;  (** same through a cached family child *)
  labeled_overhead_ratio : float;  (** [labeled_ns / counter_ns]; bound 2x *)
  span_ns : float;  (** one enabled span enter/exit, nanoseconds *)
  span_alloc_words : float;  (** minor words allocated per enabled span *)
}

val run : ?seed:int -> ?duration:float -> ?repeats:int -> unit -> report
(** Defaults: seed 7, 60 simulated seconds, best of 3. *)

val write_json : path:string -> report -> unit
val pp_report : Format.formatter -> report -> unit
