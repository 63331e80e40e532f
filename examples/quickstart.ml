(* Quickstart: the whole pipeline in one page.

   1. Describe a network with the element language (paper §3.1).
   2. Give the sender a prior over what the network might be.
   3. Run the ISender against the (hidden) ground truth.
   4. Watch the posterior collapse onto the truth while the sender's rate
      converges to the link speed.

   Run with: dune exec examples/quickstart.exe *)
open Utc_net
module Testbed = Utc_experiments.Testbed

type params = { link_bps : float; queued : int }

(* The sender's model family: a tail-drop buffer drained by a link whose
   speed and initial occupancy it does not know. *)
let model p =
  {
    Topology.sources = [ Topology.endpoint Flow.Primary ];
    shared =
      Topology.series
        [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:p.link_bps ];
  }

let () =
  (* Prior: 7 link speeds x 5 occupancies, uniform. Each cell becomes a
     hypothesis: its model compiled, with [queued] packets in the buffer. *)
  let prior =
    List.concat_map
      (fun link_bps -> List.map (fun queued -> ({ link_bps; queued }, 1.0)) [ 0; 2; 4; 6; 8 ])
      [ 10_000.0; 11_000.0; 12_000.0; 13_000.0; 14_000.0; 15_000.0; 16_000.0 ]
  in
  let belief =
    Utc_inference.Belief.create
      (Utc_inference.Priors.hypotheses ~queued:(fun p -> p.queued) model prior)
  in
  Format.printf "prior: %d configurations@." (Utc_inference.Belief.size belief);

  (* Ground truth the sender cannot see: 12 kbit/s, empty buffer. *)
  let testbed = Testbed.create ~seed:42 (model { link_bps = 12_000.0; queued = 0 }) in
  let isender = Testbed.isender testbed Utc_core.Isender.default_config ~belief in
  Utc_core.Isender.start isender;
  Utc_sim.Engine.run ~until:60.0 testbed.Testbed.engine;

  let posterior = Utc_inference.Belief.posterior (Utc_core.Isender.belief isender) in
  Format.printf "@.posterior after 60 s:@.";
  List.iteri
    (fun i (p, w) ->
      if i < 3 then Format.printf "  link=%5.0f bps, queued=%d pkts : %.3f@." p.link_bps p.queued w)
    posterior;
  Format.printf "@.sent %d packets in 60 s (the 12 kbit/s link fits 60)@."
    (Utc_core.Isender.sent_count isender);
  let sends = Utc_core.Isender.sent isender in
  Format.printf "first sends:";
  List.iteri (fun i (t, seq) -> if i < 6 then Format.printf " #%d@@%.2fs" seq t) sends;
  Format.printf "@."
