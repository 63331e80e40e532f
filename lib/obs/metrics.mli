(** Process-wide metrics registry: named counters, gauges, fixed-bucket
    histograms, wall/sim span profiling, and labeled metric families.

    Handles are registered once (typically at module-init via a top-level
    [let c = Metrics.counter "..."]) and recording through a handle is O(1)
    and allocation-free. While the registry is disabled (the default) every
    recording operation is a single flag test, so instrumentation left in
    hot paths costs nothing measurable.

    Determinism contract: counter increments are atomic, so counter totals
    are exact order-independent sums at any domain count. Gauges and
    histograms must only be mutated from serial sections of a run — or
    through family children whose label sets are disjoint across pooled
    runs (e.g. [run="7"]) — so that {!snapshot} is a pure function of
    [(seed, schedule)] regardless of the domain count. Span wall-time and
    allocation words are the one exception — they are profiling data,
    flagged as such, and excluded from deterministic output via
    [snapshot_json ~profile:false]. *)

type counter
type gauge
type histogram
type span

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** {1 Counters} *)

val counter : string -> counter
(** Registers (or retrieves) the counter with this name. *)

val counter_name : counter -> string
val count : counter -> int

val incr : counter -> unit
(** No-op while the registry is disabled (same for every recording op). *)

val add : counter -> int -> unit

(** {1 Gauges} *)

val gauge : string -> gauge
val gauge_value : gauge -> float option
(** [None] until the gauge has been set while enabled. *)

val set_gauge : gauge -> float -> unit

(** {1 Histograms} *)

val default_buckets : float list
(** Decades from [1e-3] to [1e7]. *)

val histogram : ?buckets:float list -> string -> histogram
(** Fixed upper-bound buckets (sorted, deduplicated) plus an implicit
    overflow bucket. [buckets] is only consulted on first registration.
    Raises [Invalid_argument] on an empty bucket list. *)

val observe : histogram -> float -> unit
(** O(#buckets) — constant per sample. *)

(** {1 Labeled families}

    A family is a metric name plus a bounded set of label-addressed
    children — the Prometheus model. [labeled fam [("flow", "aux3")]]
    resolves (registering on first use) the child named
    [name{flow="aux3"}]; label keys are sorted into one canonical
    rendering, so child identity and snapshot order are independent of
    the order the caller lists labels in. Children are ordinary handles
    living in the global registry: they appear in {!snapshot} under their
    rendered name (name-then-label sorted) and recording through one
    costs exactly what the unlabeled handle costs.

    Cardinality is hard-capped (default {!default_max_children} children
    per family): once a family is full, every new label set resolves to
    the reserved [name{other="true"}] catch-all child and bumps the
    [utc_obs_family_overflow] counter, so an unbounded label source
    (e.g. one label per sender at 10⁶ senders) degrades to aggregation
    instead of unbounded memory. *)

type labels = (string * string) list
(** Label pairs; keys must be non-empty [[A-Za-z0-9_.-]]+ and unique
    within a set. Values are arbitrary and JSON-escaped on rendering. *)

type 'a family

val default_max_children : int
(** 1024. *)

val counter_family : ?max_children:int -> string -> counter family
val gauge_family : ?max_children:int -> string -> gauge family

val histogram_family :
  ?buckets:float list -> ?max_children:int -> string -> histogram family
(** All children share the family's bucket layout. Raises
    [Invalid_argument] on an empty bucket list. *)

val labeled : 'a family -> labels -> 'a
(** Resolves the child for this label set, registering it on first use
    (or routing to the [other] child once the family is at its cap).
    Thread-safe; raises [Invalid_argument] on malformed labels. Hot paths
    should resolve once and cache the child. [labeled fam []] is the
    family's unlabeled child, sharing the registry entry a plain
    [counter name] would use. *)

val family_children : 'a family -> int
(** Distinct label sets resolved so far — never exceeds the cap; the
    [other] child is not counted. *)

val family_overflows : unit -> int
(** Total over-cap resolutions process-wide (the
    [utc_obs_family_overflow] counter). Counted even while recording is
    disabled: cap overflow is a registration-shape fact, not a sample. *)

(** {1 Spans}

    Spans form a nested tree, not a flat table. Each domain carries an
    implicit span stack (domain-local, like {!Sink}'s per-run routing):
    entering [span ~name:"belief.update"] inside [span ~name:"wakeup"]
    accumulates under the path ["wakeup/belief.update"]. Every tree node
    records call count, sim-time, wall-time, and GC minor/major
    allocation-word deltas; costs are cumulative (a parent's totals
    include its children's — self time is derived at render time, see
    {!Profile}). Recursive re-entry into the same name produces distinct
    paths (["r"], ["r/r"], …), so self-time never double-counts.

    Sim-time and call counts are byte-deterministic at any domain count;
    wall and allocation words are profiling-only and excluded from
    deterministic output alongside [wall_seconds]. *)

val span : ?now:(unit -> float) -> ?root:bool -> name:string -> (unit -> 'a) -> 'a
(** [span ~name f] runs [f] and accumulates its wall-clock duration (via
    {!Obs_clock}) and GC allocation deltas under the current stack's path
    extended by [name]; with [?now] it also accumulates the sim-time
    advanced during [f] and journals {!Event.Span_begin}/{!Event.Span_end}
    pairs into the ambient {!Sink} (when that is enabled). Re-entrant and
    exception-safe; when the registry is disabled it is exactly [f ()].

    [~root:true] ignores the ambient stack and starts a fresh subtree at
    [name]. Required for spans that wrap a pooled top-level job (harness
    or mean-field runs): a domain draining the pool's shared queue can
    execute another job while one of its own spans is open, and re-rooting
    keeps the recorded paths independent of that schedule. *)

(** {1 Snapshots} *)

type histogram_view = {
  hv_bounds : float list;
  hv_counts : int list;  (** one per bound, plus trailing overflow *)
  hv_total : int;
  hv_sum : float;
}

type span_view = {
  sv_calls : int;
  sv_sim_seconds : float;
  sv_wall_seconds : float;
      (** profiling only; excluded from determinism diffs *)
  sv_minor_words : float;  (** GC minor words allocated inside the span (profiling only) *)
  sv_major_words : float;  (** GC major words allocated inside the span (profiling only) *)
}

type snapshot = {
  at : float;  (** sim-time the snapshot is keyed by *)
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_view) list;
  spans : (string * span_view) list;
      (** keyed by full span path; a path-sorted flattening of the span
          tree (['/'] sorts before ['{'] and most identifier characters,
          so a parent precedes its children) *)
}

val snapshot : at:float -> snapshot
(** All entries sorted by name — family children sort right after their
    family name, label sets in canonical order — deterministic for a
    deterministic run. *)

val snapshot_json : ?profile:bool -> snapshot -> string
(** One-line JSON. [~profile:false] drops every wall-clock and
    allocation field, making the output bit-deterministic for fixed
    [(seed, schedule, domains)]. *)

val pp_snapshot : Format.formatter -> snapshot -> unit

val reset : unit -> unit
(** Zeroes every registered entry, family children included (handles
    stay valid and registered). *)
