(** Return-path delay / clock skew as an inferred parameter (§3.4, §3.5).

    The paper's preliminary experiments assume synchronized clocks and an
    instant, lossless return path, and flag both as future work: "clock
    skew may need to be incorporated into the model as a parameter to be
    estimated" and "both paths will need to be modeled". This experiment
    does exactly that: the ground truth delays every acknowledgment by a
    fixed, hidden offset, the belief carries the offset as one more grid
    parameter (via {!Utc_inference.Belief.create}'s [obs_offset]), and
    the posterior must concentrate on the true value — the sender cannot
    otherwise explain why ACKs arrive "late". *)

type params = {
  link_bps : float;
  return_delay : float;  (** Offset between delivery and its ACK. *)
}

type result = {
  posterior_on_delay : float;  (** Final P(return_delay = truth). *)
  posterior_on_link : float;
  sent : int;
  rejected_updates : int;
}

val run : ?seed:int -> ?duration:float -> unit -> result
(** Grid: link in 10..16 kbit/s, return delay in 0..0.8 s at 0.2 s steps;
    truth 12 kbit/s and 0.4 s. *)

val pp_report : Format.formatter -> result -> unit
