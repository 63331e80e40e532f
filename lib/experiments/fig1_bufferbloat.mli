(** Figure 1: round-trip time during a TCP download over a cellular-like,
    zealously retransmitting, deeply buffered path (§1).

    The paper shows a Verizon LTE trace whose RTT climbs from ~100 ms to
    multiple seconds because the link hides stochastic loss behind link-layer
    retransmission and carries a bufferbloat-sized queue that a TCP
    download keeps full. We reproduce the mechanism in simulation: a Reno
    download through one ARQ station (an [Arq] {!Utc_net.Topology.discipline}
    run by {!Utc_elements.Runtime}) with a deep tail-drop buffer and a
    propagation delay, and plot the sender's per-ACK RTT samples over
    time. *)

type config = {
  rate_bps : float;  (** Link bottleneck rate. *)
  try_loss : float;  (** Per-attempt radio loss hidden by ARQ. *)
  per_try_overhead : float;  (** Extra seconds per transmission attempt. *)
  buffer_bits : int;  (** Bufferbloat: many seconds at [rate_bps]. *)
  prop_delay : float;  (** One-way propagation, seconds. *)
  duration : float;
  seed : int;
  make_cc : unit -> Utc_tcp.Cc.t;
}

val default : config
(** 1 Mbit/s, 15 % radio loss, 10 ms per-try overhead, 3 Mbit buffer
    (3 s of queue), 30 ms propagation, 250 s Reno download. *)

type result = {
  config : config;
  rtt : (float * float) list;  (** The figure's series: (time, RTT s). *)
  cwnd : (float * float) list;
  delivered : int;
  retransmissions : int;  (** End-to-end (TCP) retransmissions. *)
  timeouts : int;
  link_transmissions : int;  (** Radio attempts, including ARQ retries. *)
  queue_max_bits : int;
}

val run : config -> result

val pp_report : Format.formatter -> result -> unit
