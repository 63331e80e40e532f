(* Intermittency (paper §1, §3.1): the path itself comes and goes. The
   ISender models the outage process (a memoryless INTERMITTENT element)
   and infers from silence whether the link is down — something TCP's
   model cannot express.

   Ground truth: the link disconnects on a 30 s square wave. The sender
   believes outages are memoryless with unknown mean time to switch.

   Run with: dune exec examples/intermittent_link.exe *)
open Utc_net
module Testbed = Utc_experiments.Testbed

let truth =
  {
    Topology.sources = [ Topology.endpoint Flow.Primary ];
    shared =
      Topology.series
        [
          Topology.squarewave ~interval:30.0 ();
          Topology.buffer ~capacity_bits:96_000;
          Topology.throughput ~rate_bps:12_000.0;
        ];
  }

type params = { mtts : float; rate : float }

let model p =
  {
    Topology.sources = [ Topology.endpoint Flow.Primary ];
    shared =
      Topology.series
        [
          Topology.intermittent ~mean_time_to_switch:p.mtts ();
          Topology.buffer ~capacity_bits:96_000;
          Topology.throughput ~rate_bps:p.rate;
        ];
  }

let () =
  let prior =
    List.concat_map
      (fun mtts -> List.map (fun rate -> ({ mtts; rate }, 1.0)) [ 10_000.0; 12_000.0; 14_000.0 ])
      [ 15.0; 30.0; 60.0 ]
  in
  let belief = Utc_inference.Belief.create (Utc_inference.Priors.hypotheses model prior) in
  let testbed = Testbed.create ~seed:21 truth in
  let isender = Testbed.isender testbed Utc_core.Isender.default_config ~belief in
  Utc_core.Isender.start isender;
  Utc_sim.Engine.run ~until:120.0 testbed.Testbed.engine;
  let sent = Utc_core.Isender.sent isender in
  let buckets = Array.make 12 0 in
  List.iter (fun (t, _) -> buckets.(min 11 (int_of_float (t /. 10.0))) <- buckets.(min 11 (int_of_float (t /. 10.0))) + 1) sent;
  Format.printf "link up on [0,30) [60,90); down on [30,60) [90,120)@.@.";
  Format.printf "sends per 10 s: ";
  Array.iter (fun n -> Format.printf "%3d" n) buckets;
  Format.printf "@.@.delivered %d of %d sent; rejected updates %d (outage process is@."
    (Utc_core.Receiver.delivered_count testbed.Testbed.receiver Flow.Primary)
    (List.length sent)
    (Utc_core.Isender.rejected_updates isender);
  Format.printf "square-wave in truth but memoryless in the model - inference still@.";
  Format.printf "tracks connectivity through ACK silence)@."
