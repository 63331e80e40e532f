open Utc_net
module Belief = Utc_inference.Belief

type result = {
  sent : (float * int) list;
  first_send : float;
  late_rate : float;
  link_rate : float;
  queue_before_first_send : int;
  posterior_on_truth : float;
}

type params = { link_bps : float; initial_packets : int }

let topology ~sources p =
  {
    Topology.sources;
    shared =
      Topology.series
        [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:p.link_bps ];
  }

let model_sources = [ Topology.endpoint Flow.Primary ]

let run_scenario ~seed ~duration ~prior ~truth ~latency_penalty ~prefill_truth () =
  let belief =
    Belief.create
      (Utc_inference.Priors.hypotheses
         ~queued:(fun p -> p.initial_packets)
         (topology ~sources:model_sources) prior)
  in
  let truth_sources =
    if prefill_truth > 0 then Topology.endpoint Flow.Cross :: model_sources else model_sources
  in
  let testbed = Testbed.create ~seed (topology ~sources:truth_sources truth) in
  (* Pre-existing queue occupancy: someone else's packets at time 0. *)
  let () =
    if prefill_truth > 0 then
      ignore
        (Utc_sim.Engine.schedule ~prio:(Evprio.arrival Flow.Cross) testbed.Testbed.engine ~at:0.0
           (fun () ->
             for i = 0 to prefill_truth - 1 do
               Utc_elements.Runtime.inject testbed.Testbed.runtime Flow.Cross
                 (Packet.make ~flow:Flow.Cross ~seq:(-1 - i) ~sent_at:0.0 ())
             done))
  in
  let utility =
    Utc_utility.Utility.make ~latency_penalty ~cross_discounted:(latency_penalty > 0.0) ()
  in
  let planner = { Utc_core.Planner.default_config with utility } in
  let config = { Utc_core.Isender.default_config with planner } in
  let isender = Testbed.isender testbed config ~belief in
  let station = List.hd (Compiled.station_ids testbed.Testbed.compiled) in
  let queue_trace = ref [] in
  Utc_core.Receiver.watch_queue testbed.Testbed.receiver ~node_id:station (fun t bits ->
      queue_trace := (t, bits) :: !queue_trace);
  Utc_core.Isender.start isender;
  Utc_sim.Engine.run ~until:duration testbed.Testbed.engine;
  let sent = Utc_core.Isender.sent isender in
  let first_send =
    match sent with
    | (t, _) :: _ -> t
    | [] -> infinity
  in
  let half = duration /. 2.0 in
  let late_sends = List.length (List.filter (fun (t, _) -> t >= half) sent) in
  let queue_before_first_send =
    List.fold_left
      (fun acc (t, bits) -> if t <= first_send then bits else acc)
      0 (List.rev !queue_trace)
  in
  let posterior_on_truth =
    List.fold_left
      (fun acc (p, w) -> if p = truth then acc +. w else acc)
      0.0
      (Belief.posterior (Utc_core.Isender.belief isender))
  in
  {
    sent;
    first_send;
    late_rate = float_of_int late_sends /. half;
    link_rate = truth.link_bps /. float_of_int Packet.default_bits;
    queue_before_first_send;
    posterior_on_truth;
  }

let unknown_link_prior =
  let links = Utc_inference.Priors.grid_float ~lo:10_000.0 ~hi:16_000.0 ~step:1_000.0 in
  let fills = [ 0; 2; 4; 6; 8 ] in
  Utc_inference.Priors.uniform
    (List.concat_map
       (fun link_bps -> List.map (fun initial_packets -> { link_bps; initial_packets }) fills)
       links)

let run_unknown_link ?(seed = 3) ?(duration = 120.0) () =
  run_scenario ~seed ~duration ~prior:unknown_link_prior
    ~truth:{ link_bps = 12_000.0; initial_packets = 0 } ~latency_penalty:0.0 ~prefill_truth:0 ()

let drain_prior =
  Utc_inference.Priors.uniform
    (List.map (fun initial_packets -> { link_bps = 12_000.0; initial_packets }) [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ])

let run_drain_first ?(seed = 3) ?(duration = 120.0) () =
  run_scenario ~seed ~duration ~prior:drain_prior
    ~truth:{ link_bps = 12_000.0; initial_packets = 4 } ~latency_penalty:1.0 ~prefill_truth:4 ()

let pp_result ppf label r =
  Format.fprintf ppf
    "%s:@.  first send at %.2f s; late-half rate %.3f pkt/s (link %.3f pkt/s);@.  queued bits at first send %d; posterior on truth %.3f@."
    label r.first_send r.late_rate r.link_rate r.queue_before_first_send r.posterior_on_truth

let pp_report ppf unknown drain =
  Format.fprintf ppf "Simple configurations (S4)@.@.";
  pp_result ppf "1. unknown link speed + fullness (expect: tentative start, then link speed)"
    unknown;
  Format.fprintf ppf "@.";
  pp_result ppf
    "2. pre-filled buffer + latency penalty (expect: drain first, then link speed)" drain;
  Format.fprintf ppf
    "@.(paper: the sender \"begins tentatively\"; once parameters are inferred it@.";
  Format.fprintf ppf
    " \"simply sends at the link speed\"; with a latency penalty it \"drains the@.";
  Format.fprintf ppf " buffer before sending at the link speed\")@."
