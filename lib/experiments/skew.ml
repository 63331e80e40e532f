open Utc_net
module Engine = Utc_sim.Engine
module Belief = Utc_inference.Belief

type params = {
  link_bps : float;
  return_delay : float;
}

type result = {
  true_delay : float;
  posterior_on_delay : float;
  posterior_on_link : float;
  sent : int;
  rejected_updates : int;
}

let topology link_bps =
  {
    Topology.sources = [ Topology.endpoint Flow.Primary ];
    shared =
      Topology.series
        [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:link_bps ];
  }

let run ?(seed = 13) ?(duration = 120.0) ?(true_delay = 0.4) () =
  let prior =
    List.concat_map
      (fun link_bps ->
        List.map
          (fun return_delay -> ({ link_bps; return_delay }, 1.0))
          [ 0.0; 0.2; 0.4; 0.6; 0.8 ])
      [ 10_000.0; 12_000.0; 14_000.0; 16_000.0 ]
  in
  let belief =
    Belief.create ~obs_offset:(fun p -> p.return_delay)
      (Utc_inference.Priors.hypotheses (fun p -> topology p.link_bps) prior)
  in
  let { Testbed.engine; receiver; runtime; _ } = Testbed.create ~seed (topology 12_000.0) in
  let isender =
    Utc_core.Isender.create engine Utc_core.Isender.default_config ~belief ~inject:(fun pkt ->
        Utc_elements.Runtime.inject runtime Flow.Primary pkt)
  in
  (* The hidden return path: every acknowledgment reaches the sender
     [true_delay] after the delivery. *)
  Utc_core.Receiver.subscribe receiver Flow.Primary (fun _ pkt ->
      ignore
        (Engine.schedule_after ~prio:(Evprio.arrival Flow.Primary) engine ~delay:true_delay
           (fun () -> Utc_core.Isender.on_ack isender pkt)));
  Utc_core.Isender.start isender;
  Engine.run ~until:duration engine;
  let posterior = Belief.posterior (Utc_core.Isender.belief isender) in
  let mass pred = List.fold_left (fun acc (p, w) -> if pred p then acc +. w else acc) 0.0 posterior in
  {
    true_delay;
    posterior_on_delay = mass (fun p -> p.return_delay = true_delay);
    posterior_on_link = mass (fun p -> p.link_bps = 12_000.0);
    sent = Utc_core.Isender.sent_count isender;
    rejected_updates = Utc_core.Isender.rejected_updates isender;
  }

let pp_report ppf r =
  Format.fprintf ppf "Return-path delay as an inferred parameter (S3.4/S3.5 future work)@.@.";
  Format.fprintf ppf "hidden return delay: %.1f s (grid 0..0.8 at 0.2)@." r.true_delay;
  Format.fprintf ppf "P(return delay = truth) = %.3f@." r.posterior_on_delay;
  Format.fprintf ppf "P(link speed  = truth) = %.3f@." r.posterior_on_link;
  Format.fprintf ppf "sent %d packets; rejected updates %d@." r.sent r.rejected_updates
