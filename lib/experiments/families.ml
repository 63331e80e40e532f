open Utc_net
module Belief = Utc_inference.Belief

type 'p result = {
  name : string;
  sent : int;
  delivered : int;
  posterior_on_truth : float;
  map_is_truth : bool;
  rejected_updates : int;
  late_rate : float;
  wall_seconds : float;
}

let run_family ?(seed = 17) ?(duration = 120.0) ~name ~prior ~model ~truth ~truth_params () =
  let wall_start = Utc_obs.Obs_clock.now () in
  let seeds =
    List.map
      (fun (p, w) ->
        let compiled = Compiled.compile_exn (model p) in
        ( p,
          w,
          Utc_model.Forward.prepare Utc_model.Forward.default_config compiled,
          Utc_model.Mstate.initial ~epoch:1.0 compiled ))
      prior
  in
  let belief = Belief.create seeds in
  let engine = Utc_sim.Engine.create ~seed () in
  let receiver = Utc_core.Receiver.create engine in
  let runtime =
    Utc_elements.Runtime.build engine (Compiled.compile_exn truth)
      (Utc_core.Receiver.callbacks receiver)
  in
  let isender =
    Utc_core.Isender.create engine Utc_core.Isender.default_config ~belief ~inject:(fun pkt ->
        Utc_elements.Runtime.inject runtime Flow.Primary pkt)
  in
  Utc_core.Receiver.subscribe receiver Flow.Primary (fun _ pkt ->
      Utc_core.Isender.on_ack isender pkt);
  Utc_core.Isender.start isender;
  Utc_sim.Engine.run ~until:duration engine;
  let posterior = Belief.posterior (Utc_core.Isender.belief isender) in
  let posterior_on_truth =
    List.fold_left (fun acc (p, w) -> if p = truth_params then acc +. w else acc) 0.0 posterior
  in
  let map_is_truth =
    match posterior with
    | (best, _) :: _ -> best = truth_params
    | [] -> false
  in
  let half = duration /. 2.0 in
  let late_sends =
    List.length (List.filter (fun (t, _) -> t >= half) (Utc_core.Isender.sent isender))
  in
  {
    name;
    sent = Utc_core.Isender.sent_count isender;
    delivered = Utc_core.Receiver.delivered_count receiver Flow.Primary;
    posterior_on_truth;
    map_is_truth;
    rejected_updates = Utc_core.Isender.rejected_updates isender;
    late_rate = float_of_int late_sends /. half;
    wall_seconds = Utc_obs.Obs_clock.elapsed_since wall_start;
  }

(* --- two chained queues --- *)

type two_hop = {
  first_bps : float;
  second_bps : float;
}

let two_hop_model p =
  {
    Topology.sources = [ Topology.endpoint Flow.Primary ];
    shared =
      Topology.series
        [
          Topology.buffer ~capacity_bits:96_000;
          Topology.throughput ~rate_bps:p.first_bps;
          Topology.delay ~seconds:0.05;
          Topology.buffer ~capacity_bits:96_000;
          Topology.throughput ~rate_bps:p.second_bps;
        ];
  }

let two_hop ?seed ?duration () =
  let truth_params = { first_bps = 24_000.0; second_bps = 12_000.0 } in
  let prior =
    Utc_inference.Priors.uniform
      (List.concat_map
         (fun first_bps ->
           List.map (fun second_bps -> { first_bps; second_bps }) [ 8_000.0; 12_000.0; 16_000.0 ])
         [ 16_000.0; 24_000.0; 32_000.0 ])
  in
  run_family ?seed ?duration ~name:"two-hop" ~prior ~model:two_hop_model
    ~truth:(two_hop_model truth_params) ~truth_params ()

(* --- non-isochronous cross traffic: PINGER followed by a JITTER --- *)

type bursty = {
  link_bps : float;
  jitter_probability : float;
}

let bursty_model p =
  {
    Topology.sources =
      [
        Topology.endpoint Flow.Primary;
        Topology.pinger
          ~access:(Topology.jitter ~seconds:0.8 ~probability:p.jitter_probability)
          ~flow:Flow.Cross ~rate_pps:0.4 ();
      ];
    shared =
      Topology.series
        [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:p.link_bps ];
  }

let bursty_cross ?seed ?duration () =
  let truth_params = { link_bps = 12_000.0; jitter_probability = 0.5 } in
  let prior =
    Utc_inference.Priors.uniform
      (List.concat_map
         (fun link_bps ->
           List.map
             (fun jitter_probability -> { link_bps; jitter_probability })
             [ 0.0; 0.5; 1.0 ])
         [ 10_000.0; 12_000.0; 14_000.0 ])
  in
  run_family ?seed ?duration ~name:"bursty-cross" ~prior ~model:bursty_model
    ~truth:(bursty_model truth_params) ~truth_params ()

let pp_result ppf r =
  Format.fprintf ppf
    "%s: sent=%d delivered=%d P(truth)=%.3f map-correct=%b rejected=%d late-rate=%.3f/s wall=%.1fs@."
    r.name r.sent r.delivered r.posterior_on_truth r.map_is_truth r.rejected_updates r.late_rate
    r.wall_seconds
