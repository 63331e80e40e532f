(** Typed telemetry events.

    One constructor per instrumented behaviour in the simulator. Every
    payload field is a plain value derived from simulation state — never
    wall-clock time — so a recorded event stream is a pure function of
    [(seed, schedule, domains)]. Flow/sender identity is not a payload
    field: it rides on {!Sink.recorded} (passed as [Sink.record ?flow]),
    so any event kind can be attributed to a flow without widening the
    variant. Extend the variant (and {!kind} / {!fields}) when
    instrumenting new behaviour; downstream exporters are
    schema-agnostic. *)

type t =
  | Packet_send of { seq : int; bits : int }
  | Packet_ack of { seq : int }
  | Packet_drop of { node : string; reason : string; seq : int }
  | Timeout of { seq : int }
  | Belief_update of { size : int; entropy : float; ess : float; status : string }
      (** [ess] is the effective sample size [1 / Σ w²] of the posterior. *)
  | Belief_reseed of { size : int; keep : int }
  | Planner_decide of { action : string; delay : float; margin : float; candidates : int }
      (** [margin] is the expected-utility gap between the chosen action
          and the runner-up (0 when there is a single candidate). *)
  | Recovery_transition of { from_ : string; to_ : string; reseeds : int }
  | Fault of { fault : string; active : bool }
  | Mark of { name : string; value : float }
      (** Free-form scalar annotation for experiment-specific telemetry. *)
  | Span_begin of { path : string }
      (** Entry into a {!Metrics.span} scope that was given a sim clock;
          [path] is the full [/]-separated span path. Begin/end pairs nest
          properly within one run, so exporters can reconstruct duration
          slices ({!Export.render}'s Chrome format emits [X] events from them). *)
  | Span_end of { path : string }  (** Exit from the matching {!Span_begin}. *)

val kind : t -> string
(** Stable snake_case tag, used as the ["event"] field in exports. *)

val fields : t -> (string * Obs_json.value) list
(** Payload fields in a fixed, documented order. *)
