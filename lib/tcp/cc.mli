(** Congestion-control algorithms behind the classic TCP sender.

    All variants share Jacobson's architecture the paper describes (§2):
    the whole network is modeled by one variable, cwnd, adjusted by
    incoming ACKs. The window is counted in packets (segments of the
    sender's uniform packet size); every variant starts at 1 packet and
    never drops below it. Reno is the window rule of every report; the
    examples also run Tahoe (lossy_link) and Vegas (bufferbloat). *)

type t = {
  cwnd : unit -> float;  (** Current window, packets (>= 1). *)
  ssthresh : unit -> float;
  on_ack : newly_acked:int -> rtt:float -> unit;
      (** Cumulative ACK advanced by [newly_acked] packets; [rtt] is
          the round-trip sample it carried, 0 if none. *)
  on_loss_event : unit -> unit;
      (** Triple-duplicate-ACK loss (fast retransmit). *)
  on_timeout : unit -> unit;
}

val tahoe : unit -> t
(** Slow start + congestion avoidance; any loss resets cwnd to 1. *)

val reno : unit -> t
(** Tahoe + fast recovery: a dupack loss halves the window instead. *)

val vegas : unit -> t
(** Delay-based: keeps between 2 and 4 packets queued. *)
