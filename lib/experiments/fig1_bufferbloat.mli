(** Figure 1: round-trip time during a TCP download over a cellular-like,
    zealously retransmitting, deeply buffered path (§1).

    The paper shows a Verizon LTE trace whose RTT climbs from ~100 ms to
    multiple seconds because the link hides stochastic loss behind link-layer
    retransmission and carries a bufferbloat-sized queue that a TCP
    download keeps full. We reproduce the mechanism in simulation: a Reno
    download through one ARQ station (an [Arq] {!Utc_net.Topology.discipline}
    run by {!Utc_elements.Runtime}) with a deep tail-drop buffer and a
    propagation delay, and plot the sender's per-ACK RTT samples over
    time. The station is always 1 Mbit/s with a 3 Mbit buffer (3 s of
    queue), 30 ms of one-way propagation behind it; {!Versus.tcp_under_aqm}
    runs the same path with other disciplines. *)

type config = {
  discipline : Utc_net.Topology.discipline;  (** The station's queue discipline. *)
  duration : float;
  seed : int;
  make_cc : unit -> Utc_tcp.Cc.t;
}

val default : config
(** ARQ with 15 % radio loss and 10 ms per-try overhead, 250 s Reno
    download. *)

type result = {
  config : config;
  rtt : (float * float) list;  (** The figure's series: (time, RTT s). *)
  cwnd : (float * float) list;
      (** (time, window in packets) at each new ACK, fast-recovery entry
          and timeout, from {!Utc_tcp.Sender.watch_cwnd}. *)
  delivered : int;
  retransmissions : int;  (** End-to-end (TCP) retransmissions. *)
  timeouts : int;
  link_transmissions : int;  (** Radio attempts, including ARQ retries. *)
  queue_max_bits : int;
  drops : int;  (** Packets the station dropped. *)
}

val run : config -> result

val pp_report : Format.formatter -> result -> unit
