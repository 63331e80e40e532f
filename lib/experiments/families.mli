(** Inference over richer model families (§3.1's compositionality claim).

    The paper argues that "by combining these elements arbitrarily, it is
    possible to model more complicated networks": multiple chained
    queues, non-isochronous cross traffic built from a PINGER followed by
    JITTERs, intermittent connectivity. The §4 experiment only exercises
    the Figure 2 shape; these families run the same ISender machinery
    over deeper compositions to show the claim holds end-to-end —
    inference converges and the sender still paces to the (effective)
    bottleneck. *)

type 'p result = {
  name : string;
  sent : int;
  delivered : int;
  posterior_on_truth : float;
  map_is_truth : bool;
  rejected_updates : int;
  late_rate : float;  (** Sends per second over the last half. *)
  wall_seconds : float;
}

type two_hop = {
  first_bps : float;
  second_bps : float;
}

val two_hop : ?seed:int -> ?duration:float -> unit -> two_hop result
(** Two chained queues with a propagation delay between them; both hop
    rates unknown (truth: 24 kbit/s then 12 kbit/s — the second hop is
    the bottleneck the sender must discover). *)

type bursty = {
  link_bps : float;
  jitter_probability : float;
}

val bursty_cross : ?seed:int -> ?duration:float -> unit -> bursty result
(** Non-isochronous cross traffic: a PINGER followed by a JITTER (§3.1's
    recipe). The jitter probability is itself inferred; every jittered
    cross packet forks the belief model. *)

val pp_result : Format.formatter -> 'p result -> unit
