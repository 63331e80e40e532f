(** Mean-field fluid backend: a fluid background population coupled to
    packet-accurate foreground traffic.

    The direct runtime ({!Runtime}) executes every packet of every flow;
    the belief-state interpreter ([Utc_model]) forks on nondeterminism.
    Both cap out at hundreds of senders. This backend follows the
    mean-field limit of interacting TCP populations (McDonald & Reynier;
    Graham, Robert & Verloop): a large {e background} population of
    exchangeable AIMD flows shares one per-flow window/rate state, driven
    by a fixed-step deterministic integrator, while a handful of
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

    The integrator is serial, so its output is byte-identical at any
    domain count. The population's per-flow window and per-flow rate are
    rounded to Q43.20 fixed point after every step, and the aggregates
    are the flow count times those integers. The rounding is kept because
    the committed numbers were produced with it.

    {2 Scope (v1)}

    The background path may traverse FIFO [Station], [Delay], [Loss],
    [Jitter] (as its mean extra delay) and [Divert] elements; ARQ, RED
    and CoDel stations and [Gate]/[Either]/[Multipath] on the
    {e background} path are rejected at build time. Foreground packets
    support the full element language, exactly as the direct runtime
    does. *)

val max_total_flows : int
(** 4_194_304 flows per population. *)

(** {1 Build and drive} *)

type t

val build :
  ?dt:float ->
  Utc_sim.Engine.t ->
  Utc_net.Compiled.t ->
  Runtime.callbacks ->
  flow:Utc_net.Flow.t ->
  flows:int ->
  t
(** A population of [flows] background flows entering at [flow]'s
    [Endpoint], each sending {!Utc_net.Packet.default_bits}-bit segments
    from an initial window of one packet. Walks the background path from
    that entry, builds the {!Runtime} for the foreground, couples each
    background-path station to the integrator and schedules its ticks
    every [dt] seconds (default 0.01; none when the population is
    empty). The integrator clamps each flow's window at 4096 packets,
    floors the population RTT at 1 ms and smooths each station's
    foreground arrival rate with an EWMA of weight 0.25 on the newest
    sample. Raises [Invalid_argument] if [flow] has no [Endpoint] entry,
    [flows] is outside [0..]{!max_total_flows}, [dt <= 0], or the
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
