(** The §4 prior table: does the posterior home in on the true network?

    The paper initializes the ISender with a discretized uniform prior
    whose support includes the true parameters, and reports that the
    sender "can usually quickly pare down the prior to a smaller list of
    possibilities as it homes in on a good estimate". This driver runs
    the §4 experiment and reports, per parameter of the table, the
    posterior mass on the true value over time. *)

type marginals = {
  at : float;
  link_speed : float;  (** P(c = 12,000). *)
  pinger_rate : float;  (** P(r = 0.7c). *)
  loss_rate : float;  (** P(p = 0.2). *)
  buffer : float;  (** P(capacity = 96,000). *)
  fullness : float;  (** P(initial fullness = 0). *)
  hypotheses : int;
}

type result = {
  trace : marginals list;  (** Sampled over the run, oldest first. *)
  final : marginals;
}

val run : ?seed:int -> ?duration:float -> ?alpha:float -> unit -> result
(** Runs the §4 harness and computes the final marginals, and a coarse
    trace from its belief samples. *)

val pp_report : Format.formatter -> result -> unit
