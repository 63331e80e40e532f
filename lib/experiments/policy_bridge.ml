open Utc_net
module Belief = Utc_inference.Belief
module Mstate = Utc_model.Mstate
module Forward = Utc_model.Forward
module Planner = Utc_core.Planner

(* The bottleneck of a hypothesis' model: its first station at or after
   node [id], or -1 if there is none. *)
let rec first_station compiled id =
  if id >= Compiled.node_count compiled then -1
  else
    match Compiled.node compiled id with
    | Compiled.Station _ -> id
    | Compiled.Delay _ | Compiled.Loss _ | Compiled.Jitter _ | Compiled.Gate _ | Compiled.Either _
    | Compiled.Divert _ | Compiled.Multipath _ ->
      first_station compiled (id + 1)

(* Expected bottleneck occupancy (packets) under the belief: queue plus
   in-service bits of the first station of each hypothesis, weighted. *)
let expected_occupancy belief =
  Belief.fold belief ~init:0.0 ~f:(fun acc ~params:_ ~prepared ~state ~logw ->
      let station = first_station (Forward.compiled_of prepared) 0 in
      if station < 0 then acc
      else begin
        let bits = Mstate.station_bits state station in
        acc +. (exp logw *. (float_of_int bits /. float_of_int Packet.default_bits))
      end)

(* Belief-mean service time of one packet at the bottleneck. *)
let expected_service belief =
  let rate =
    Belief.fold belief ~init:0.0 ~f:(fun acc ~params:_ ~prepared ~state:_ ~logw ->
        let compiled = Forward.compiled_of prepared in
        let station = first_station compiled 0 in
        let station_rate =
          if station < 0 then 0.0
          else
            match Compiled.node compiled station with
            | Compiled.Station { rate_bps; _ } -> rate_bps
            | Compiled.Delay _ | Compiled.Loss _ | Compiled.Jitter _ | Compiled.Gate _
            | Compiled.Either _ | Compiled.Divert _ | Compiled.Multipath _ ->
              0.0
        in
        acc +. (exp logw *. station_rate))
  in
  if rate > 0.0 then float_of_int Packet.default_bits /. rate else 1.0

let decider ~threshold belief ~now:_ ~pending ~make_packet:_ =
  let occupancy = expected_occupancy belief +. float_of_int (List.length pending) in
  if occupancy +. 1.0 <= float_of_int threshold then (Planner.Send_now, [])
  else (Planner.Sleep (expected_service belief), [])

type comparison = {
  threshold : int;
  planner_sent : int;
  policy_sent : int;
  planner_goodput_bps : float;
  policy_goodput_bps : float;
  planner_cross_drops : int;
  policy_cross_drops : int;
  planner_wall : float;
  policy_wall : float;
  planner_decide_wall : float;
  policy_decide_wall : float;
}

let run_sender ?decide ~seed ~duration ~alpha () =
  let wall_start = Utc_obs.Obs_clock.now () in
  let belief =
    Belief.create
      (Utc_inference.Priors.seeds ~config:Forward.default_config
         (Utc_inference.Priors.paper_prior ()))
  in
  let testbed = Testbed.create ~seed Utc_inference.Priors.paper_truth_topology in
  let utility = Utc_utility.Utility.make ~alpha ~cross_discounted:true () in
  let planner = { Planner.default_config with utility; delays = Harness.paper_delays } in
  let config = { Utc_core.Isender.default_config with planner } in
  let decide = Option.value decide ~default:(Utc_core.Isender.default_decider config) in
  let decide_wall = ref 0.0 in
  let timed belief ~now ~pending ~make_packet =
    let start = Utc_obs.Obs_clock.now () in
    let decision = decide belief ~now ~pending ~make_packet in
    decide_wall := !decide_wall +. Utc_obs.Obs_clock.elapsed_since start;
    decision
  in
  let isender = Testbed.isender ~decide:timed testbed config ~belief in
  Utc_core.Isender.start isender;
  Utc_sim.Engine.run ~until:duration testbed.Testbed.engine;
  let receiver = testbed.Testbed.receiver in
  let cross_drops =
    List.length
      (List.filter
         (fun (_, _, r, pkt) ->
           r = Utc_elements.Runtime.Tail_drop && Flow.equal pkt.Packet.flow Flow.Cross)
         (Utc_core.Receiver.drops receiver))
  in
  ( Utc_core.Isender.sent_count isender,
    Utc_core.Receiver.throughput receiver Flow.Primary ~since:0.0 ~until:duration,
    cross_drops,
    Utc_obs.Obs_clock.elapsed_since wall_start,
    !decide_wall )

let compare_on_fig3 ?(seed = 1) ?(duration = 200.0) ?(alpha = 1.0) () =
  let solution =
    Utc_pomdp.Sender_mdp.solve { Utc_pomdp.Sender_mdp.default with Utc_pomdp.Sender_mdp.alpha }
  in
  let threshold = Utc_pomdp.Sender_mdp.send_threshold solution in
  let planner_sent, planner_goodput_bps, planner_cross_drops, planner_wall, planner_decide_wall =
    run_sender ~seed ~duration ~alpha ()
  in
  let policy_sent, policy_goodput_bps, policy_cross_drops, policy_wall, policy_decide_wall =
    run_sender ~decide:(decider ~threshold) ~seed ~duration ~alpha ()
  in
  {
    threshold;
    planner_sent;
    policy_sent;
    planner_goodput_bps;
    policy_goodput_bps;
    planner_cross_drops;
    policy_cross_drops;
    planner_wall;
    policy_wall;
    planner_decide_wall;
    policy_decide_wall;
  }

let pp_report ppf c =
  Format.fprintf ppf
    "Precomputed policy vs online planner on the S4 network (same belief filter)@.@.";
  Format.fprintf ppf "offline policy: send while expected occupancy < %d@.@." c.threshold;
  Format.fprintf ppf "%-18s %10s %14s %12s %10s %10s@." "sender" "sent" "goodput(bps)"
    "cross-drops" "wall(s)" "decide(s)";
  Format.fprintf ppf "%-18s %10d %14.0f %12d %10.2f %10.3f@." "online planner" c.planner_sent
    c.planner_goodput_bps c.planner_cross_drops c.planner_wall c.planner_decide_wall;
  Format.fprintf ppf "%-18s %10d %14.0f %12d %10.2f %10.3f@." "offline policy" c.policy_sent
    c.policy_goodput_bps c.policy_cross_drops c.policy_wall c.policy_decide_wall;
  Format.fprintf ppf
    "@.(S3.3: \"the sender's algorithm need not be executed in real time\" -@.";
  Format.fprintf ppf
    " the table-driven sender prices nothing at decision time and should land@.";
  Format.fprintf ppf " in the same regime as the planner)@."
