(* Stochastic loss (paper §1, §3): TCP conflates stochastic loss with
   congestion and collapses; the ISender models it explicitly and keeps
   sending at the link speed.

   Both senders run over the same path: a 96 kbit buffer into a 12 kbit/s
   link, then 20% last-mile loss. (The ISender does not retransmit —
   transmission control, not reliability — so compare *offered* rate and
   inference quality, which is the paper's point.)

   Run with: dune exec examples/lossy_link.exe *)
open Utc_net
module Testbed = Utc_experiments.Testbed

type params = { rate : float; loss : float }

(* A 96 kbit buffer into a link, then last-mile loss: the truth and,
   with the rate and loss rate unknown, the ISender's model family. *)
let model p =
  {
    Topology.sources = [ Topology.endpoint Flow.Primary ];
    shared =
      Topology.series
        [
          Topology.buffer ~capacity_bits:96_000;
          Topology.throughput ~rate_bps:p.rate;
          Topology.loss ~rate:p.loss;
        ];
  }

let truth = model { rate = 12_000.0; loss = 0.2 }

let run_isender () =
  let prior =
    List.concat_map
      (fun rate -> List.map (fun loss -> ({ rate; loss }, 1.0)) [ 0.0; 0.05; 0.1; 0.15; 0.2 ])
      [ 10_000.0; 12_000.0; 14_000.0; 16_000.0 ]
  in
  let belief = Utc_inference.Belief.create (Utc_inference.Priors.hypotheses model prior) in
  let testbed = Testbed.create ~seed:5 truth in
  let isender = Testbed.isender testbed Utc_core.Isender.default_config ~belief in
  Utc_core.Isender.start isender;
  Utc_sim.Engine.run ~until:200.0 testbed.Testbed.engine;
  let sent = Utc_core.Isender.sent_count isender in
  let best, mass = Utc_inference.Belief.map_estimate (Utc_core.Isender.belief isender) in
  Format.printf "ISender: offered %d pkts in 200 s (link fits 200);@." sent;
  Format.printf "         inferred rate=%.0f loss=%.2f with posterior %.2f@." best.rate best.loss
    mass

let run_tcp name make_cc =
  let testbed = Testbed.create ~seed:5 truth in
  let sender = Testbed.tcp testbed { Utc_tcp.Sender.default_config with make_cc } in
  Utc_tcp.Sender.start sender;
  Utc_sim.Engine.run ~until:200.0 testbed.Testbed.engine;
  Format.printf "%s: delivered %d pkts, %d timeouts, %d retransmissions@." name
    (Utc_tcp.Sender.delivered sender)
    (Utc_tcp.Sender.timeouts sender)
    (Utc_tcp.Sender.retransmissions sender)

let () =
  Format.printf "20%% stochastic last-mile loss on a 12 kbit/s link, 200 s:@.@.";
  run_isender ();
  run_tcp "Reno  " (fun () -> Utc_tcp.Cc.reno ());
  run_tcp "Tahoe " (fun () -> Utc_tcp.Cc.tahoe ());
  Format.printf
    "@.(TCP reads every stochastic loss as congestion and keeps its window near 1;@.";
  Format.printf
    " the ISender infers the loss rate as a channel parameter and sends at the@.";
  Format.printf " link speed - the paper's core argument.)@."
