(** Robustness under misspecification: fault injection + recovery.

    The paper's §3.5 asks what the sender should do when reality is not
    in the model. This experiment manufactures exactly that: the
    hypothesis family varies only the link rate, and a deterministic
    {!Utc_elements.Faults} schedule perturbs the ground truth mid-run in
    ways no hypothesis describes — a link-rate flap, a loss burst, and
    acknowledgment-path faults. Each fault class is run three ways:

    - [no-recovery]: the pre-existing behaviour — rejected updates are
      logged and the belief advances unconditioned, so the sender keeps
      acting on a stale posterior.
    - [recovery]: the {!Utc_core.Recovery} ladder with a re-widened
      prior (geometric multiples of the MAP link rate) via
      {!Utc_inference.Belief.reseed}.
    - [oracle]: the same ladder, but the reseed installs the exact
      post-fault truth — an upper bound on what recovery can achieve. *)

type params = { link_bps : float }

type variant =
  | No_recovery
  | With_recovery
  | Oracle

(* lint:allow R13 -- perfbench's faults workload reads it; ROADMAP item 6 drops it *)
val variant_name : variant -> string

type run = {
  variant : variant;
  sent : int;
  delivered : int;
  post_throughput : float;  (** Delivered bits/s from the fault onset to the end. *)
  utility : float;
      (** Realized discounted throughput: delivered bits discounted by
          time in flight (kappa = 60 s). *)
  rejected_updates : int;
  max_streak : int;  (** Longest run of consecutive rejected updates. *)
  reseeds : int;
  stale_acks : int;  (** ACKs discarded below the reseed watermark. *)
  dropped_acks : int;  (** ACKs eaten by the fault schedule. *)
  rehealed_at : float option;
      (** Sim time of the first Probing->Healthy transition after the
          onset: posterior re-concentrated. *)
}

type scenario = {
  name : string;
  description : string;
  onset : float;
  reseed_after : int;  (** The ladder's streak bound [k] used in this run. *)
  runs : run list;  (** In order: no-recovery, recovery, oracle. *)
}

val onset : float
(** Every scenario's fault starts at this simulated time (40 s); a run
    must last longer. *)

val run_rate_flap : ?seed:int -> ?duration:float -> unit -> scenario
(** Link rate multiplied by 3 from t = 40 onward (permanent shift,
    outside the prior grid). *)

val run_all : ?seed:int -> ?duration:float -> unit -> scenario list
(** {!run_rate_flap}, then three faults over [40, 70): last-mile loss
    probability 0 -> 0.3, every acknowledgment deferred 0.5 s, and each
    acknowledgment eaten with probability 0.5. *)

val pp_report : Format.formatter -> scenario list -> unit
(** One table row per run. Under the rate flap it also states the
    acceptance criterion: whether the recovering sender's longest
    rejection streak is at most the ladder's [reseed_after], and whether
    its post-fault delivered throughput strictly exceeds the
    no-recovery baseline's. *)
