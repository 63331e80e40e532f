open Utc_net
module Tb = Utc_sim.Timebase
module Belief = Utc_inference.Belief
module Faults = Utc_elements.Faults
module Recovery = Utc_core.Recovery
module Isender = Utc_core.Isender

type params = { link_bps : float }

type variant =
  | No_recovery
  | With_recovery
  | Oracle

let variant_name = function
  | No_recovery -> "no-recovery"
  | With_recovery -> "recovery"
  | Oracle -> "oracle"

type run = {
  variant : variant;
  sent : int;
  delivered : int;
  post_throughput : float;
  utility : float;
  rejected_updates : int;
  max_streak : int;
  reseeds : int;
  stale_acks : int;
  dropped_acks : int;
  rehealed_at : float option;
}

type scenario = {
  name : string;
  description : string;
  onset : float;
  reseed_after : int;
  runs : run list;
}

(* One sender into a tail-drop buffer drained by a rate-limited link,
   with a last-mile loss element (rate 0 unless a fault overrides it).
   The hypothesis family varies only the link rate — every injected
   fault is outside the family, i.e. genuinely unmodeled. *)
let topology p =
  {
    Topology.sources = [ Topology.endpoint Flow.Primary ];
    shared =
      Topology.series
        [
          Topology.buffer ~capacity_bits:96_000;
          Topology.throughput ~rate_bps:p.link_bps;
          Topology.loss ~rate:0.0;
        ];
  }

let truth = { link_bps = 12_000.0 }

let prior =
  Utc_inference.Priors.uniform
    (List.map
       (fun link_bps -> { link_bps })
       (Utc_inference.Priors.grid_float ~lo:10_000.0 ~hi:16_000.0 ~step:1_000.0))

(* Recovery's re-widened prior: geometric multiples of the MAP link rate,
   wide enough to recapture a large unmodeled shift in either direction. *)
let widen_factors = [ 0.25; 0.5; 1.0; 2.0; 3.0; 4.0; 8.0 ]

let reseed_widened ~now belief =
  let map, _ = Belief.map_estimate belief in
  let widened =
    Utc_inference.Priors.uniform
      (List.map (fun f -> { link_bps = map.link_bps *. f }) widen_factors)
  in
  Belief.reseed belief ~seeds:(Utc_inference.Priors.hypotheses topology widened) ~now ()

let reseed_oracle truth_after ~now belief =
  Belief.reseed belief
    ~seeds:(Utc_inference.Priors.hypotheses topology [ (truth_after, 1.0) ])
    ~now ()

let recovery_config = Recovery.default_config

let run_variant ~seed ~duration ~onset ~schedule ~truth_after variant =
  let belief = Belief.create (Utc_inference.Priors.hypotheses topology prior) in
  let { Testbed.engine; receiver; runtime; _ } = Testbed.create ~seed (topology truth) in
  let faults = Faults.arm engine runtime ~seed:(seed + 7919) schedule in
  let config =
    match variant with
    | No_recovery -> Isender.default_config
    | With_recovery | Oracle -> { Isender.default_config with recovery = Some recovery_config }
  in
  let reseed =
    match variant with
    | No_recovery -> None
    | With_recovery -> Some reseed_widened
    | Oracle -> Some (reseed_oracle truth_after)
  in
  let isender =
    Isender.create ?reseed engine config ~belief ~inject:(fun pkt ->
        Utc_elements.Runtime.inject runtime Flow.Primary pkt)
  in
  Utc_core.Receiver.subscribe receiver Flow.Primary
    (Faults.wrap_ack faults (fun _ pkt -> Isender.on_ack isender pkt));
  Isender.start isender;
  Utc_sim.Engine.run ~until:duration engine;
  let deliveries = Utc_core.Receiver.deliveries receiver Flow.Primary in
  let utility =
    (* Realized discounted throughput: each delivered bit discounted by
       the time it spent in flight (kappa = 60 s, the default). *)
    List.fold_left
      (fun acc (t, pkt) ->
        acc +. (float_of_int pkt.Packet.bits *. exp (-.(t -. pkt.Packet.sent_at) /. 60.0)))
      0.0 deliveries
  in
  let rehealed_at =
    List.fold_left
      (fun acc (t, from_, to_) ->
        match acc with
        | Some _ -> acc
        | None ->
          if
            Tb.( >=. ) t onset
            && Recovery.phase_equal from_ Recovery.Probing
            && Recovery.phase_equal to_ Recovery.Healthy
          then Some t
          else None)
      None (Isender.transitions isender)
  in
  {
    variant;
    sent = Isender.sent_count isender;
    delivered = Utc_core.Receiver.delivered_count receiver Flow.Primary;
    post_throughput =
      Utc_core.Receiver.throughput receiver Flow.Primary ~since:onset ~until:duration;
    utility;
    rejected_updates = Isender.rejected_updates isender;
    max_streak = Isender.max_rejection_streak isender;
    reseeds = Isender.reseeds isender;
    stale_acks = Isender.stale_acks isender;
    dropped_acks = Faults.dropped_acks faults;
    rehealed_at;
  }

let run_scenario ~seed ~duration ~onset ~name ~description ~schedule ~truth_after () =
  if duration <= onset then invalid_arg "Ext_faults: duration must exceed the fault onset";
  let runs =
    List.map
      (run_variant ~seed ~duration ~onset ~schedule ~truth_after)
      [ No_recovery; With_recovery; Oracle ]
  in
  { name; description; onset; reseed_after = recovery_config.Recovery.reseed_after; runs }

let onset = 40.0

let run_rate_flap ?(seed = 1) ?(duration = 120.0) () =
  run_scenario ~seed ~duration ~onset ~name:"rate-flap"
    ~description:"link rate x3 (12k -> 36k bps) from t=40 onward; outside the prior grid"
    ~schedule:
      [
        {
          Faults.from_ = onset;
          until = duration +. 1.0;
          spec = Faults.Rate_flap { station = None; factor = 3.0 };
        };
      ]
    ~truth_after:{ link_bps = 36_000.0 } ()

let run_loss_burst ?(seed = 1) ?(duration = 120.0) () =
  run_scenario ~seed ~duration ~onset ~name:"loss-burst"
    ~description:"last-mile loss 0 -> 0.3 over [40, 70); the family models no loss"
    ~schedule:
      [
        {
          Faults.from_ = onset;
          until = 70.0;
          spec = Faults.Loss_burst { node = None; rate = 0.3 };
        };
      ]
    ~truth_after:truth ()

let run_ack_delay ?(seed = 1) ?(duration = 120.0) () =
  run_scenario ~seed ~duration ~onset ~name:"ack-delay"
    ~description:"every ACK deferred 0.5 s over [40, 70); the model assumes an instant return path"
    ~schedule:
      [ { Faults.from_ = onset; until = 70.0; spec = Faults.Ack_delay { seconds = 0.5 } } ]
    ~truth_after:truth ()

let run_ack_drop ?(seed = 1) ?(duration = 120.0) () =
  run_scenario ~seed ~duration ~onset ~name:"ack-drop"
    ~description:"each ACK eaten with p=0.5 over [40, 70); the return path is assumed lossless"
    ~schedule:[ { Faults.from_ = onset; until = 70.0; spec = Faults.Ack_drop { p = 0.5 } } ]
    ~truth_after:truth ()

let run_all ?(seed = 1) ?(duration = 120.0) () =
  [
    run_rate_flap ~seed ~duration ();
    run_loss_burst ~seed ~duration ();
    run_ack_delay ~seed ~duration ();
    run_ack_drop ~seed ~duration ();
  ]

let find_run scenario variant =
  List.find
    (fun r ->
      match (r.variant, variant) with
      | No_recovery, No_recovery | With_recovery, With_recovery | Oracle, Oracle -> true
      | (No_recovery | With_recovery | Oracle), _ -> false)
    scenario.runs

(* The PR's acceptance bar, checked on the rate flap: the recovering
   sender's rejection streak stays bounded by the ladder's [reseed_after]
   and it strictly out-delivers the non-recovering baseline after the
   fault. *)
let rate_flap_acceptance scenario =
  let baseline = find_run scenario No_recovery in
  let recovering = find_run scenario With_recovery in
  let streak_ok = recovering.max_streak <= scenario.reseed_after in
  let throughput_ok = recovering.post_throughput > baseline.post_throughput in
  (streak_ok, throughput_ok)

let pp_run ppf r =
  Format.fprintf ppf "  %-12s %6d %7d %11.1f %11.1f %6d %7d %5d %6d %6d %9s@."
    (variant_name r.variant) r.sent r.delivered r.post_throughput r.utility r.rejected_updates
    r.max_streak r.reseeds r.stale_acks r.dropped_acks
    (match r.rehealed_at with
    | Some t -> Printf.sprintf "%.1f" t
    | None -> "-")

let pp_scenario ppf s =
  Format.fprintf ppf "%s: %s@." s.name s.description;
  Format.fprintf ppf "  %-12s %6s %7s %11s %11s %6s %7s %5s %6s %6s %9s@." "variant" "sent"
    "deliv" "post-bps" "utility" "rejup" "streak" "rsd" "stale" "adrop" "heal-t";
  List.iter (pp_run ppf) s.runs;
  Format.fprintf ppf "@."

let pp_report ppf scenarios =
  Format.fprintf ppf
    "Fault robustness (ext-faults): unmodeled mid-run perturbations, fault onset t=%.0f s@.@."
    onset;
  Format.fprintf ppf
    "  post-bps = delivered throughput after onset; streak = longest run of rejected@.";
  Format.fprintf ppf
    "  updates; rsd = posterior reseeds; heal-t = ladder back to Healthy (sim time)@.@.";
  List.iter (pp_scenario ppf) scenarios;
  match List.find_opt (fun s -> String.equal s.name "rate-flap") scenarios with
  | None -> ()
  | Some s ->
    let streak_ok, throughput_ok = rate_flap_acceptance s in
    let baseline = find_run s No_recovery in
    let recovering = find_run s With_recovery in
    Format.fprintf ppf "rate-flap acceptance: streak %d <= %d (%s); post-fault %.1f > %.1f bps (%s)@."
      recovering.max_streak s.reseed_after
      (if streak_ok then "PASS" else "FAIL")
      recovering.post_throughput baseline.post_throughput
      (if throughput_ok then "PASS" else "FAIL")
