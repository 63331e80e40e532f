(** Mean-field experiment: the fluid backend at population scale, plus
    its referee.

    [run] drives {!Utc_elements.Fluid}: a background population of AIMD flows
    integrated as one shared per-flow window state, with a handful of
    packet-accurate foreground Reno senders coupled through the shared
    queues. Per-flow foreground accounting is published through the same
    [versus.flow.*] labeled families as {!Versus.many_senders}; the
    population publishes new [meanfield.agg.*] entries and journal marks.

    [validate] runs the same topology with every background flow as a
    real {!Utc_tcp.Sender} on the direct runtime — feasible up to 256
    flows — and compares the two, yielding the agreement numbers the
    cross-validation suite asserts. *)

type topo =
  | Single  (** One scaled §4 bottleneck. *)
  | Parking_lot
      (** Two bottlenecks in series separated by a 20 ms hop; the second
          has 80% of the first's rate and is the binding constraint. *)

val topo_to_string : topo -> string

type config = {
  seed : int;
  duration : float;
  background : int;  (** Fluid background flows (0 allowed). *)
  foreground : int;  (** Packet-accurate Reno senders, flows [Aux 0..]. *)
  topo : topo;
  dt : float;  (** Integrator step. *)
  sample_every : float;  (** Aggregate sampling period. *)
}

val default_config : config
(** seed 1, 120 s, 5,000 background flows, 2 foreground
    senders, single bottleneck, dt 10 ms, 1 s samples. *)

type fg_row = {
  fg_sender : int;
  fg_flow : string;
  fg_sent : int;
  fg_delivered : int;
  fg_throughput_bps : float;
  fg_mean_rtt : float;
}

type summary = {
  m_topo : topo;
  m_background : int;
  m_foreground : int;
  m_duration : float;
  final : Utc_elements.Fluid.agg;  (** Aggregate state at the end of the run. *)
  bg_goodput_bps : float;
      (** Steady-state background goodput: delivered bits over the second
          half of the run divided by its length. *)
  bg_queue_bits : float;
      (** Steady-state mean total queue (fluid backlog + foreground bits,
          summed over background-path stations), sampled over the second
          half. *)
  fg_rows : fg_row list;
  ticks : int;  (** Integrator steps executed. *)
}

val run : ?config:config -> unit -> summary
(** Raises [Invalid_argument] if [background < 0], [foreground] outside
    [0..256], or the fluid backend rejects the configuration. *)

val pp_summary : Format.formatter -> summary -> unit

(** {1 Cross-validation against packet-level truth} *)

type agreement = {
  a_topo : topo;
  a_n : int;
  fluid_goodput_bps : float;
  packet_goodput_bps : float;
  goodput_rel_err : float;  (** |fluid - packet| / packet. *)
  fluid_queue_bits : float;
  packet_queue_bits : float;
  queue_frac_of_buffer : float;
      (** |fluid - packet| / total buffer capacity — queue agreement is
          stated against capacity because near-empty queues make relative
          error degenerate. *)
}

val validate : ?seed:int -> ?duration:float -> topo:topo -> n:int -> unit -> agreement
(** Fluid vs packet truth at [n] background flows, no foreground (the
    aggregate comparison the test suite bounds). *)

val pp_agreement : Format.formatter -> agreement -> unit

(** {1 Benchmark} *)

type bench_row = {
  b_n : int;
  b_wall_s : float;
  b_ticks : int;
  b_goodput_bps : float;
}

val bench : unit -> bench_row list
(** Wall-time of [run] across a background-population ladder: 10^3 to
    10^6 flows, 60 simulated seconds each, with no foreground senders,
    so each rung times the integrator alone. *)

val pp_bench : Format.formatter -> bench_row list -> unit

val write_bench_json : path:string -> bench_row list -> unit
(** One-line JSON report (BENCH_meanfield.json shape): [max_background]
    plus per-row wall time, ticks and steady-state goodput. *)
