(** The §4 prior table: does the posterior home in on the true network?

    The paper initializes the ISender with a discretized uniform prior
    whose support includes the true parameters, and reports that the
    sender "can usually quickly pare down the prior to a smaller list of
    possibilities as it homes in on a good estimate". This driver runs
    the §4 experiment and reports, per parameter of the table, the
    posterior mass on the true value over time. *)

type result = {
  trace : Harness.sample list;
      (** The belief sample of every wakeup, oldest first: per-parameter
          posterior mass on the true value ([m_link] for c = 12,000,
          [m_rate] for r = 0.7c, [m_loss] for p = 0.2, [m_buffer] for a
          96,000-bit capacity, [m_fullness] for an empty initial queue)
          and the number of hypotheses. *)
  final : Harness.sample;  (** The last sample. *)
}

val run : ?seed:int -> ?duration:float -> unit -> result
(** Runs the §4 harness ({!Harness.default}, alpha 1) and keeps its
    belief samples. The sender's first wakeup, at time 0, always takes
    one; raises [Invalid_argument] if the run took none. *)

val pp_report : Format.formatter -> result -> unit
