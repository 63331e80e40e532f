open Utc_net

type result = {
  topology : Topology.t;
  compiled_nodes : int;
  agreement_deliveries : int;
  agreement : bool;
}

let run ?(seed = 42) ?(duration = 150.0) () =
  let topology =
    Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.0 ~pinger_pps:0.7
      ~cross_gate:(Topology.squarewave ~interval:100.0 ())
  in
  let compiled = Compiled.compile_exn topology in
  let sends =
    [ (0.5, 0); (3.0, 1); (3.1, 2); (5.0, 3); (20.0, 4); (101.0, 5); (102.0, 6); (110.0, 7) ]
  in
  (* Ground truth. *)
  let engine = Utc_sim.Engine.create ~seed () in
  let ground_truth = ref [] in
  let callbacks =
    Utc_elements.Runtime.callbacks
      ~deliver:(fun flow pkt ->
        ground_truth := (Utc_sim.Engine.now engine, flow, pkt.Packet.seq) :: !ground_truth)
      ()
  in
  let runtime = Utc_elements.Runtime.build engine compiled callbacks in
  (* Injections carry the primary arrival priority, the same class
     Forward.run inserts sends at, so same-instant ties (e.g. the send at
     t = 20 s against pinger emission #14) order identically. A live
     sender gets this from the window cut instead (see
     Forward.run's until_prio). *)
  List.iter
    (fun (at, seq) ->
      ignore
        (Utc_sim.Engine.schedule ~prio:(Evprio.arrival Flow.Primary) engine ~at (fun () ->
             Utc_elements.Runtime.inject runtime Flow.Primary
               (Packet.make ~flow:Flow.Primary ~seq ~sent_at:at ()))))
    sends;
  Utc_sim.Engine.run ~until:duration engine;
  let ground_truth = List.rev !ground_truth in
  (* Belief-state interpreter, same configuration and sends. *)
  let model_sends =
    List.map (fun (at, seq) -> (at, Packet.make ~flow:Flow.Primary ~seq ~sent_at:at ())) sends
  in
  let outcomes =
    List.concat_map
      (fun (_, _, prepared, state) ->
        Utc_model.Forward.run prepared state ~sends:model_sends ~until:duration)
      (Utc_inference.Priors.hypotheses (Fun.const topology) [ ((), 1.0) ])
  in
  let model =
    match outcomes with
    | [ outcome ] ->
      List.map
        (fun (d : Utc_model.Forward.delivery) ->
          (d.time, d.packet.Packet.flow, d.packet.Packet.seq))
        outcome.Utc_model.Forward.deliveries
    | _ -> []
  in
  {
    topology;
    compiled_nodes = Compiled.node_count compiled;
    agreement_deliveries = List.length ground_truth;
    agreement = ground_truth = model && ground_truth <> [];
  }

let pp_report ppf result =
  Format.fprintf ppf "Figure 2: the network model as an element composition@.@.";
  Format.fprintf ppf "%a@.@." Topology.pp result.topology;
  Format.fprintf ppf "normalized+compiled to %d live nodes@." result.compiled_nodes;
  Format.fprintf ppf
    "interpreter agreement: %s (%d deliveries bit-identical between ground truth and model)@."
    (if result.agreement then "EXACT" else "MISMATCH")
    result.agreement_deliveries
