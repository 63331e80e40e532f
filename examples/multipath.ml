(* §3.5 names "multipath intra-flow routing" among the real-life phenomena
   the element language still needs. This example uses the Multipath
   element: packets alternate between a fast and a slow sub-path (causing
   reordering), and an ISender infers the slow path's extra delay from the
   interleaved ACK timings.

   Run with: dune exec examples/multipath.exe *)
open Utc_net
module Testbed = Utc_experiments.Testbed

type params = { slow_extra : float }

let model p =
  {
    Topology.sources = [ Topology.endpoint Flow.Primary ];
    shared =
      Topology.series
        [
          Topology.buffer ~capacity_bits:96_000;
          Topology.throughput ~rate_bps:12_000.0;
          Topology.multipath
            ~first:(Topology.series [])
            ~second:(Topology.delay ~seconds:p.slow_extra)
            ();
        ];
  }

let () =
  let truth = { slow_extra = 1.5 } in
  let prior =
    Utc_inference.Priors.uniform
      (List.map (fun slow_extra -> { slow_extra }) [ 0.5; 1.0; 1.5; 2.0; 2.5 ])
  in
  let belief = Utc_inference.Belief.create (Utc_inference.Priors.hypotheses model prior) in
  let testbed = Testbed.create ~seed:31 (model truth) in
  let isender = Testbed.isender testbed Utc_core.Isender.default_config ~belief in
  Utc_core.Isender.start isender;
  Utc_sim.Engine.run ~until:60.0 testbed.Testbed.engine;
  Format.printf "multipath link: even packets direct, odd packets +%.1f s (reordering!)@.@."
    truth.slow_extra;
  let arrivals = Utc_core.Receiver.deliveries testbed.Testbed.receiver Flow.Primary in
  Format.printf "first arrivals (note the out-of-order sequence numbers):@.  ";
  List.iteri
    (fun i (t, pkt) -> if i < 8 then Format.printf "#%d@@%.2fs " pkt.Packet.seq t)
    arrivals;
  Format.printf "@.@.";
  List.iter
    (fun (p, w) -> Format.printf "P(slow_extra = %.1f s) = %.3f@." p.slow_extra w)
    (Utc_inference.Belief.posterior (Utc_core.Isender.belief isender));
  Format.printf "@.sent %d, delivered %d, rejected updates %d@."
    (Utc_core.Isender.sent_count isender)
    (List.length arrivals)
    (Utc_core.Isender.rejected_updates isender)
