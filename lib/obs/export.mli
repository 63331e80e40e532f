(** Journal exporters: JSONL, Chrome [trace_event], and figure-pipeline
    time series.

    All output is a pure function of the recorded events — byte-identical
    for fixed [(seed, schedule)] at any domain count. *)

type format = Jsonl | Chrome

val jsonl_line : Sink.recorded -> string
(** One JSON object: [{"t":…,"n":…,"event":"…","flow":"…","run":"…",…payload}]
    where ["n"] is the journal sequence number and ["flow"] / ["run"]
    (each present only when the record carries one) are the record's flow
    identity and sweep-run label. *)

val render : format -> Sink.recorded list -> string
(** [Jsonl]: one {!jsonl_line} per record, newline-terminated.

    [Chrome]: a Chrome [trace_event] JSON array: [ts] is sim-time in
    microseconds, one synthetic [pid] "process" per sweep run when records
    carry a run label, else per flow (pid 1 is the simulation itself —
    records with neither; pids are assigned in first-appearance order and
    named via [process_name] metadata). Within a process, tid 0 carries
    duration ([X]) slices reconstructed from
    {!Event.Span_begin}/{!Event.Span_end} pairs — properly nested, so
    Perfetto renders the span tree as a flame graph — and each other event
    kind gets its own instant-event lane, named via [thread_name]
    metadata. A [Span_end] whose begin was ring-dropped is skipped; a
    [Span_begin] whose end lies beyond the journal becomes an unterminated
    [B] slice. Loadable in chrome://tracing or Perfetto. *)

val write : path:string -> string -> unit

val series : Sink.recorded list -> (string * (float * float) list) list
(** [(sim-time, value)] series extracted from the journal for the figure
    pipeline: ["belief.entropy"], ["belief.ess"], ["belief.size"] (from
    belief-update events) and ["planner.margin"] (from planner
    decisions). *)
