(** Extension experiments the paper's §3.5 marks as open questions.

    - ISender vs TCP sharing one bottleneck: the ISender's model does not
      describe a TCP peer (its cross-traffic model is an intermittent
      isochronous pinger), so this probes behavior under model
      misspecification — rejected updates trigger unconditioned
      advancing.
    - TCP under AQM: Reno through tail-drop, RED and CoDel on the
      bufferbloat path of Figure 1, measuring delay vs throughput — the
      in-network counterpoint the paper's introduction discusses. *)

type share = {
  label : string;
  primary_bps : float;
  other_bps : float;
  jain : float;
  drops : int;
  rejected_updates : int;  (** Model-misspecification fallbacks. *)
}

val isender_vs_tcp : ?seed:int -> ?duration:float -> unit -> share
(** ISender (Primary, alpha 1) and a Reno download (Aux 0) into the §4
    bottleneck (no stochastic loss, no pinger in the ground truth; the
    ISender keeps its usual model family). *)

val isender_vs_isender : ?seed:int -> ?duration:float -> unit -> share
(** Two ISenders (alpha 1 each) with the paper's model family sharing the
    §4 bottleneck, each explaining the other as an intermittent pinger.
    Reports the throughput split and how often each belief rejected
    every configuration. *)

type flow_row = {
  sender : int;
  flow : string;  (** [Flow.to_string], e.g. ["aux3"] — the family label *)
  f_sent : int;
  f_delivered : int;
  f_throughput_bps : float;
  f_mean_rtt : float;
  f_queue_drops : int;
}

type many = {
  senders : int;
  many_duration : float;
  rows : flow_row list;  (** one per sender, in sender order *)
  many_jain : float;
  total_drops : int;
}

val scaled_bottleneck : flows:int -> float * int
(** [(rate_bps, buffer_bits)] of the §4 bottleneck scaled with the
    population: 12,000 bit/s and 48,000 buffer bits (4 packets) per
    flow, counting at least one flow. *)

val many_senders : ?seed:int -> ?duration:float -> senders:int -> unit -> many
(** [senders] Reno senders (flows [Aux 0 .. Aux n-1]) sharing one
    {!scaled_bottleneck}, so the per-sender fair share stays the §4
    12 kbps. Per-flow accounting is published through the
    [versus.flow.*] labeled metric families
    (sent/delivered/queue-drop counters, goodput gauge, RTT histogram;
    one [flow="auxN"] child per sender) and every packet event in the
    journal carries its flow. Raises [Invalid_argument] unless
    [1 <= senders <= 256]. *)

type aqm_row = {
  discipline : string;
  throughput_bps : float;
  mean_rtt : float;
  p95_rtt : float;
  aqm_drops : int;
}

val tcp_under_aqm : ?seed:int -> ?duration:float -> unit -> aqm_row list
(** Reno through tail-drop / RED / CoDel at the Figure 1 bottleneck:
    {!Fig1_bufferbloat.run} with its station's discipline set to [Fifo],
    [Red] or [Codel]. *)

val pp_share : Format.formatter -> share -> unit
val pp_many : Format.formatter -> many -> unit
val pp_aqm : Format.formatter -> aqm_row list -> unit
