(** Mean-field fluid backend: a fluid background population coupled to
    packet-accurate foreground traffic.

    The direct runtime ({!Runtime}) executes every packet of every flow;
    the belief-state interpreter ([Utc_model]) forks on nondeterminism.
    Both cap out at hundreds of senders. This backend follows the
    mean-field limit of interacting TCP populations (McDonald & Reynier;
    Graham, Robert & Verloop): a large {e background} population of AIMD
    flows evolves as per-class aggregate window/rate state driven by a
    fixed-step deterministic integrator, while a handful of
    {e foreground} sources stay packet-accurate: their packets run
    through {!Runtime}, over the same compiled network.

    {2 Hybrid coupling}

    Background and foreground meet at the stations of the background
    path. Each such station is coupled ({!Runtime.couple}) through three
    terms:

    - the station reports each foreground packet's bits to the
      integrator, which keeps an EWMA foreground arrival rate per station
      and subtracts it from the capacity available to the population;
    - the admission test charges the station's fluid backlog against its
      free buffer space;
    - a packet entering service first waits out the fluid backlog
      ([q_fluid / rate]), then is served at the residual rate the
      background departure process leaves.

    The background also sees the real foreground queue bits: they consume
    tail-drop headroom and add queueing delay to the population RTT.

    Every coupling term vanishes when the population is empty, so with
    zero background flows this backend is the direct runtime {e bit for
    bit}.

    {2 Determinism}

    Per-class state is fixed-point ({!fix_scale}-scaled integers) and
    every class-to-aggregate reduction is an exact integer sum of
    [flows * contribution] terms, so integrator output is byte-identical
    at any domain count and {e exactly} invariant to how the population
    is chunked into classes (splitting a class, merging equal classes,
    or permuting the class list). Nonlinear per-class updates may use
    float internally but are rounded back to fixed point, so equal
    classes stay bitwise equal forever.

    {2 Scope (v1)}

    The background path may traverse FIFO [Station], [Delay], [Loss],
    [Jitter] (as its mean extra delay) and [Divert] elements; ARQ, RED
    and CoDel stations and [Gate]/[Either]/[Multipath] on the
    {e background} path are rejected at build time. Foreground packets
    support the full element language, exactly as the direct runtime
    does. *)

(** {1 The background population} *)

type pop_class = {
  flows : int;  (** Flows in this class; [0 <= flows <= ]{!max_class_flows}. *)
  init_window_pkts : float;  (** Initial per-flow congestion window. *)
}

type population = {
  pop_flow : Utc_net.Flow.t;
      (** Endpoint whose compiled entry the population traverses. *)
  pkt_bits : int;  (** Background segment size. *)
  pop_classes : pop_class list;
}

val max_class_flows : int
(** 1_048_576 flows per class. *)

val max_classes : int
(** 4_096 classes. *)

val max_total_flows : int
(** 4_194_304 flows per population. *)

val population : ?classes:int -> flow:Utc_net.Flow.t -> flows:int -> unit -> population
(** Homogeneous population of [flows] flows balanced over [classes]
    (default 1) equal classes, packet size {!Utc_net.Packet.default_bits},
    initial window 1 packet. *)

(** {1 Build and drive} *)

type t

val build :
  ?dt:float ->
  Utc_sim.Engine.t ->
  Utc_net.Compiled.t ->
  Runtime.callbacks ->
  background:population ->
  t
(** Walks the background path from the population's entry, builds the
    {!Runtime} for the foreground, couples each background-path station
    to the integrator, seeds the integrator and schedules its ticks
    every [dt] seconds (default 0.01; none when the population is
    empty). The integrator clamps each flow's window at 4096 packets,
    floors the population RTT at 1 ms and smooths each station's
    foreground arrival rate with an EWMA of weight 0.25 on the newest
    sample. Raises [Invalid_argument] if the population flow has no
    [Endpoint] entry, a population bound is exceeded, [dt <= 0], or the
    background path crosses an unsupported element (the message names a
    non-FIFO station's node). *)

val inject : t -> Utc_net.Flow.t -> Utc_net.Packet.t -> unit
(** {!Runtime.inject} on the foreground runtime, under the
    [fluid.inject] profiler span. *)

val runtime : t -> Runtime.t
(** The runtime carrying the foreground packets. *)

(** {1 Aggregate observables} *)

type agg = {
  at : float;  (** Time of the integrator step this sample reflects. *)
  mean_window_pkts : float;  (** Population mean per-flow window. *)
  offered_pps : float;  (** Aggregate background send rate, packets/s. *)
  goodput_bps : float;
      (** Aggregate background delivery rate after queue-overflow and
          stochastic loss, bits/s. *)
  delivered_bits : float;  (** Cumulative background bits delivered. *)
  loss_prob : float;  (** End-to-end background loss probability. *)
  rtt : float;  (** Population round-trip time, seconds. *)
  queue_bits : (int * float) list;
      (** Fluid backlog per background-path station, in node-id order. *)
}

val sample : t -> agg

val steps : t -> int  (** Integrator ticks executed so far. *)

(** {1 Fixed-point introspection (tests)} *)

val fix_scale : int
(** Scale of the fixed-point class state: 2{^20}. *)

val class_states : t -> (int * int) list
(** [(flows, window)] per class in class order, windows in raw
    {!fix_scale} fixed point — the byte-level state the chunking
    invariance property quantifies over. *)
