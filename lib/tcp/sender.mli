(** A classic TCP-style reliable sender over the simulated network.

    An unbounded download of 1,500-byte segments, window-based with
    cumulative ACKs, fast retransmit on the third duplicate ACK, fast
    recovery that ends on the first new ACK (classic Reno, RFC 5681),
    and a Jacobson/Karn retransmission timer ({!Rto}) — the architecture
    the paper uses as its baseline and foil. The receiver half lives
    here too: wire {!on_delivery} to the flow's deliveries and the
    receiver acknowledges instantly over the lossless return path,
    mirroring the ISender's setup so comparisons are apples-to-apples.

    Packets carry the stream sequence number in [Packet.seq]; a
    retransmission reuses the sequence number. *)

type config = {
  flow : Utc_net.Flow.t;
  make_cc : unit -> Cc.t;  (** The window rule. *)
}

val default_config : config
(** The primary flow, {!Cc.reno}. *)

type t

val create : Utc_sim.Engine.t -> config -> inject:(Utc_net.Packet.t -> unit) -> t

val start : t -> unit

val on_delivery : t -> Utc_net.Packet.t -> unit
(** Data packet reached the receiver (wire via {!Utc_core.Receiver.subscribe}
    or a plain node graph). *)

(** {1 Introspection} *)

(* lint:allow R13 -- test_tcp "sender traces" checks the last window sample against it *)
val cwnd : t -> float

val delivered : t -> int
(** Cumulatively acknowledged packets. *)

val sent_count : t -> int
(** Transmissions, including retransmissions. *)

val retransmissions : t -> int
val timeouts : t -> int

val rtt_trace : t -> (Utc_sim.Timebase.t * float) list
(** Per-ACK RTT samples (time, seconds), oldest first — Figure 1's data. *)

val watch_cwnd : t -> (Utc_sim.Timebase.t -> float -> unit) -> unit
(** [watch_cwnd t f] calls [f now cwnd] with the engine's time and the
    window, in packets, at each later new ACK, fast-recovery entry and
    timeout. Several observers run in registration order. The sender
    keeps no window log: register before {!start} to see every
    sample. *)
