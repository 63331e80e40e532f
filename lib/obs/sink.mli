(** Bounded in-memory journal of telemetry events.

    The process-wide journal is the default: instrumentation sites call
    {!record} with the current sim-time (and, for packet-level events,
    the flow the packet belongs to); the harness or CLI enables the sink
    around a run and exports the result via {!Export}. While disabled
    (the default) {!record} is a single flag test, so instrumented hot
    paths stay free.

    {b Per-run sinks.} A sweep ([Harness.run_many], [utc trace sweep])
    fans whole runs across the domain pool, so recording straight into the
    process journal would interleave runs in pool-completion order.
    Instead the sweep's serial prologue {!create}s one private handle per
    run, each pooled job executes under {!with_run} — which routes every
    {!record} in its dynamic extent (on whichever domain runs the job)
    into that run's handle — and a serial epilogue {!absorb}s the handles
    in run-index order. The concatenated journal is then a pure function
    of [(seed, schedule)] at any domain count.

    Events are kept in recording order with a monotonically increasing
    sequence number. When a journal is full the oldest event is discarded
    and the drop is counted, so memory stays bounded on long runs while
    recent history survives.

    Determinism: entries carry sim-time only, and by contract {!record}
    is called from serial sections of each run exclusively, so the
    journal — and any export of it — is byte-identical for fixed
    [(seed, schedule)] regardless of [UTC_DOMAINS]. *)

type recorded = {
  at : float;  (** sim-time *)
  seq : int;
  flow : string option;
      (** flow/sender identity for packet-level events; [None] for
          run-scoped events (belief, planner, recovery, faults) *)
  run : string option;
      (** the {!with_run} label active when the event was recorded, if
          any — lets a sweep's absorbed journal attribute every event to
          its run, and gives the Chrome exporter one track per run *)
  event : Event.t;
}

val default_capacity : int
(** 65_536 events. *)

(** {1 The process-wide journal} *)

val enable : ?capacity:int -> unit -> unit
(** Starts recording (journal contents are preserved; call {!reset}
    first for a fresh run). A [capacity] below the journal's length
    discards its oldest events at once, counting them as dropped ({!stats}).
    The flag gates every handle, private ones included. Raises
    [Invalid_argument] if [capacity <= 0]. *)

val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Clears the process journal and resets its sequence counter and drop
    count. *)

val record : ?flow:string -> at:float -> Event.t -> unit
(** No-op while disabled. Records into the ambient handle: the
    {!with_run} handle when one is pinned to this domain, the process
    journal otherwise. Must only be called from serial sections of the
    enclosing run. *)

val events : unit -> recorded list
(** Oldest first. *)

val stats : unit -> int * int
(** [(length, dropped)]: the events held and the events the ring has
    dropped, read under one lock so the pair is consistent. *)

val capacity : unit -> int

(** {1 Per-run handles} *)

type t
(** A private journal handle with the same ring semantics as the process
    journal. *)

val create : ?capacity:int -> unit -> t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val with_run : run:string -> t -> (unit -> 'a) -> 'a
(** [with_run ~run handle f] routes every {!record} in [f]'s dynamic
    extent into [handle] and exposes [run] via {!run_label}. The binding
    is domain-local and restored on exit (exceptions included), so it
    holds on whichever domain runs a pooled job, and a caller that runs
    several jobs of its own chunk binds each job's handle in turn. *)

val run_label : unit -> string option
(** The [~run] label of the innermost active {!with_run}, if any. Used
    by instrumentation that labels per-run metric-family children. *)

val absorb : t -> unit
(** Drains [t]'s events into the process journal in order, renumbering
    them with the journal's own sequence counter and folding [t]'s drop
    count in; [t] is left empty. Call from a serial epilogue, in
    run-index order. *)
