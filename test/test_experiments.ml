(* Integration tests over the experiment drivers: shortened versions of
   every figure, asserting the paper's qualitative shape. *)
module E = Utc_experiments

let fig2_agreement () =
  let result = E.Fig2_topology.run () in
  Alcotest.(check bool) "interpreters agree exactly" true result.E.Fig2_topology.agreement;
  Alcotest.(check bool) "nontrivial comparison" true
    (result.E.Fig2_topology.agreement_deliveries > 50)

let simple_unknown_link () =
  let r = E.Simple_configs.run_unknown_link ~duration:60.0 () in
  Alcotest.(check bool) "tentative start" true (r.E.Simple_configs.first_send > 0.0);
  Alcotest.(check bool) "reaches link speed"
    true
    (Float.abs (r.E.Simple_configs.late_rate -. r.E.Simple_configs.link_rate) < 0.15);
  Alcotest.(check bool) "identifies truth" true (r.E.Simple_configs.posterior_on_truth > 0.9)

let simple_drain_first () =
  let r = E.Simple_configs.run_drain_first ~duration:60.0 () in
  (* 4 packets of prefill at 1 s each: a latency-respecting sender waits
     for most of the drain. *)
  Alcotest.(check bool)
    (Printf.sprintf "waits for drain (%.2f s)" r.E.Simple_configs.first_send)
    true
    (r.E.Simple_configs.first_send >= 1.5);
  Alcotest.(check bool) "then link speed" true
    (Float.abs (r.E.Simple_configs.late_rate -. r.E.Simple_configs.link_rate) < 0.15)

let fig3_alpha_shape () =
  (* Shortened run: first 60 s (cross on) only, two alphas. *)
  let low = E.Fig3_alpha.run_one ~duration:60.0 ~alpha:1.0 () in
  let high = E.Fig3_alpha.run_one ~duration:60.0 ~alpha:5.0 () in
  let rate run = float_of_int (E.Harness.sends_in run.E.Fig3_alpha.result ~since:20.0 ~until:60.0) /. 40.0 in
  let low_rate = rate low and high_rate = rate high in
  Alcotest.(check bool)
    (Printf.sprintf "deference increases with alpha (%.3f vs %.3f)" low_rate high_rate)
    true
    (high_rate <= low_rate +. 0.02);
  (* Residual capacity at alpha=1 is about 0.3 pkt/s. *)
  Alcotest.(check bool)
    (Printf.sprintf "alpha=1 fills residual (%.3f)" low_rate)
    true
    (low_rate > 0.15 && low_rate < 0.5);
  (* The paper: no buffer overflows caused for alpha >= 1. *)
  Alcotest.(check int) "no cross drops at alpha=1" 0 (E.Fig3_alpha.rates low).E.Fig3_alpha.overflow_drops_caused

let fig3_detects_switch_off () =
  let run = E.Fig3_alpha.run_one ~duration:140.0 ~alpha:1.0 () in
  let on_rate = float_of_int (E.Harness.sends_in run.E.Fig3_alpha.result ~since:40.0 ~until:100.0) /. 60.0 in
  let off_rate = float_of_int (E.Harness.sends_in run.E.Fig3_alpha.result ~since:110.0 ~until:140.0) /. 30.0 in
  Alcotest.(check bool)
    (Printf.sprintf "ramps to link speed after cross stops (%.2f -> %.2f)" on_rate off_rate)
    true
    (off_rate > 0.8 && on_rate < 0.5)

let fig3_inference_converges () =
  let run = E.Fig3_alpha.run_one ~duration:80.0 ~alpha:1.0 () in
  match List.rev run.E.Fig3_alpha.result.E.Harness.samples with
  | last :: _ ->
    Alcotest.(check bool) "link speed identified" true (last.E.Harness.m_link > 0.95);
    Alcotest.(check bool) "pinger rate identified" true (last.E.Harness.m_rate > 0.9);
    Alcotest.(check bool) "fullness identified" true (last.E.Harness.m_fullness > 0.95)
  | [] -> Alcotest.fail "no samples"

let fig1_bufferbloat_shape () =
  let result = E.Fig1_bufferbloat.run { E.Fig1_bufferbloat.default with duration = 120.0 } in
  let rtts = List.map snd result.E.Fig1_bufferbloat.rtt in
  let late = List.filteri (fun i _ -> i > List.length rtts / 3) rtts in
  let mean = List.fold_left ( +. ) 0.0 late /. float_of_int (List.length late) in
  (* The figure's point: multi-second self-inflicted RTT. *)
  Alcotest.(check bool) (Printf.sprintf "bufferbloat RTT (%.2f s)" mean) true (mean > 1.0);
  Alcotest.(check bool) "link-layer hides loss" true
    (result.E.Fig1_bufferbloat.link_transmissions > result.E.Fig1_bufferbloat.delivered);
  Alcotest.(check bool) "download makes progress" true (result.E.Fig1_bufferbloat.delivered > 1000)

let prior_table_trace () =
  let result = E.Prior_table.run ~duration:60.0 () in
  Alcotest.(check bool) "trace sampled" true (List.length result.E.Prior_table.trace > 10);
  let final = result.E.Prior_table.final in
  Alcotest.(check bool) "link mass grows to certainty" true (final.E.Harness.m_link > 0.95);
  let first = List.hd result.E.Prior_table.trace in
  Alcotest.(check bool) "starts uncertain" true (first.E.Harness.m_link < 0.5)

let ablation_cap_policies_work () =
  let rows = E.Ablations.cap_policy ~duration:60.0 () in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Printf.sprintf "%s keeps sending" row.E.Ablations.label)
        true
        (row.E.Ablations.sent > 5))
    rows

let versus_tcp_runs () =
  let share = E.Versus.isender_vs_tcp ~duration:120.0 () in
  (* The open question of §3.5: just assert the system holds together and
     both flows move data. *)
  Alcotest.(check bool) "tcp moves data" true (share.E.Versus.other_bps > 0.0);
  Alcotest.(check bool) "jain defined" true
    (share.E.Versus.jain >= 0.5 && share.E.Versus.jain <= 1.0)

let aqm_rows () =
  let rows = E.Versus.tcp_under_aqm ~duration:60.0 () in
  Alcotest.(check int) "three disciplines" 3 (List.length rows);
  let find name = List.find (fun r -> r.E.Versus.discipline = name) rows in
  let taildrop = find "tail-drop" and codel = find "CoDel" in
  Alcotest.(check bool)
    (Printf.sprintf "codel mean rtt (%.3f) below tail-drop (%.3f)" codel.E.Versus.mean_rtt
       taildrop.E.Versus.mean_rtt)
    true
    (codel.E.Versus.mean_rtt < taildrop.E.Versus.mean_rtt)

(* The testbed schedules nothing of its own: after creating it and
   attaching an ISender and a Reno sender, the engine holds what
   Runtime.build scheduled and its RNG has not moved. *)
let testbed_schedules_nothing () =
  let open Utc_net in
  let truth = Utc_inference.Priors.paper_truth_topology in
  let truth =
    { truth with Topology.sources = Topology.endpoint (Flow.Aux 0) :: truth.Topology.sources }
  in
  let reference = Utc_sim.Engine.create ~seed:4 () in
  let receiver = Utc_core.Receiver.create reference in
  ignore
    (Utc_elements.Runtime.build reference (Compiled.compile_exn truth)
       (Utc_core.Receiver.callbacks receiver));
  let testbed = E.Testbed.create ~seed:4 truth in
  let engine = testbed.E.Testbed.engine in
  let scheduled = Utc_sim.Engine.pending reference in
  Alcotest.(check bool) "the truth schedules its pinger" true (scheduled > 0);
  Alcotest.(check int) "create schedules what Runtime.build does" scheduled
    (Utc_sim.Engine.pending engine);
  let belief =
    Utc_inference.Belief.create
      (Utc_inference.Priors.seeds ~config:Utc_model.Forward.default_config
         [ (Utc_inference.Priors.paper_truth, 1.0) ])
  in
  ignore (E.Testbed.isender testbed Utc_core.Isender.default_config ~belief);
  ignore (E.Testbed.tcp testbed { Utc_tcp.Sender.default_config with flow = Flow.Aux 0 });
  Alcotest.(check int) "attaching schedules nothing" scheduled (Utc_sim.Engine.pending engine);
  Alcotest.(check int64) "and draws nothing"
    (Utc_sim.Rng.bits64 (Utc_sim.Engine.rng reference))
    (Utc_sim.Rng.bits64 (Utc_sim.Engine.rng engine))

let suite =
  [
    ("fig2 agreement", `Quick, fig2_agreement);
    ("testbed schedules nothing", `Quick, testbed_schedules_nothing);
    ("simple unknown link", `Slow, simple_unknown_link);
    ("simple drain first", `Slow, simple_drain_first);
    ("fig3 alpha shape", `Slow, fig3_alpha_shape);
    ("fig3 detects switch off", `Slow, fig3_detects_switch_off);
    ("fig3 inference converges", `Slow, fig3_inference_converges);
    ("fig1 bufferbloat shape", `Slow, fig1_bufferbloat_shape);
    ("prior table trace", `Slow, prior_table_trace);
    ("ablation cap policies", `Slow, ablation_cap_policies_work);
    ("versus tcp runs", `Slow, versus_tcp_runs);
    ("aqm rows", `Slow, aqm_rows);
  ]

let skew_inferred () =
  let r = E.Skew.run ~duration:90.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "return delay identified (%.3f)" r.E.Skew.posterior_on_delay)
    true
    (r.E.Skew.posterior_on_delay > 0.9);
  Alcotest.(check bool) "link identified too" true (r.E.Skew.posterior_on_link > 0.9);
  Alcotest.(check int) "no rejections" 0 r.E.Skew.rejected_updates

let versus2_runs () =
  let share = E.Versus.isender_vs_isender ~duration:90.0 () in
  Alcotest.(check bool) "both move data" true
    (share.E.Versus.primary_bps > 0.0 && share.E.Versus.other_bps > 0.0)

let two_hop_family () =
  let r = E.Families.two_hop ~duration:100.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "identifies both hops (P=%.3f)" r.E.Families.posterior_on_truth)
    true r.E.Families.map_is_truth;
  (* Bottleneck is the 12 kbit/s second hop: 1 pkt/s late rate. *)
  Alcotest.(check bool)
    (Printf.sprintf "paces to the second hop (%.3f/s)" r.E.Families.late_rate)
    true
    (Float.abs (r.E.Families.late_rate -. 1.0) < 0.2);
  Alcotest.(check int) "no rejections" 0 r.E.Families.rejected_updates

let bursty_cross_family () =
  let r = E.Families.bursty_cross ~duration:100.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "identifies link + jitter probability (P=%.3f)" r.E.Families.posterior_on_truth)
    true r.E.Families.map_is_truth;
  Alcotest.(check int) "no rejections" 0 r.E.Families.rejected_updates

let policy_bridge_comparable () =
  let c = E.Policy_bridge.compare_on_fig3 ~duration:120.0 () in
  (* Same regime: goodput within a factor of two of the planner, and far
     cheaper decisions. The comparison is time inside the decider, the
     cost §3.3's precomputed table removes: whole-run wall time is
     dominated by each sender's belief filter, and the policy's extra
     sends keep a costlier belief. *)
  Alcotest.(check bool)
    (Printf.sprintf "goodput comparable (%.0f vs %.0f)" c.E.Policy_bridge.policy_goodput_bps
       c.E.Policy_bridge.planner_goodput_bps)
    true
    (c.E.Policy_bridge.policy_goodput_bps > 0.5 *. c.E.Policy_bridge.planner_goodput_bps);
  Alcotest.(check bool)
    (Printf.sprintf "policy decides cheaper (%.3f s vs %.3f s)" c.E.Policy_bridge.policy_decide_wall
       c.E.Policy_bridge.planner_decide_wall)
    true
    (c.E.Policy_bridge.policy_decide_wall < c.E.Policy_bridge.planner_decide_wall)

let scalability_rows () =
  let rows = E.Scalability.run ~duration:30.0 ~fractions:[ 32; 8 ] () in
  Alcotest.(check int) "two exact rows + resampler" 3 (List.length rows);
  (* Exact rows must identify the truth; every row must keep operating.
     The bounded resampler may honestly lose the true cell when it
     resamples an uninformative prior (documented behavior). *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s@%d keeps sending" r.E.Scalability.policy r.E.Scalability.prior_cells)
        true (r.E.Scalability.sent > 3);
      if r.E.Scalability.policy = "top-k" then
        Alcotest.(check bool)
          (Printf.sprintf "top-k@%d identifies truth (%.3f)" r.E.Scalability.prior_cells
             r.E.Scalability.truth_mass)
          true
          (r.E.Scalability.truth_mass > 0.2))
    rows;
  (* Larger exact priors cost at least as much as smaller ones. *)
  match rows with
  | small :: big :: _ ->
    Alcotest.(check bool) "cost grows with the prior" true
      (big.E.Scalability.wall_seconds >= 0.5 *. small.E.Scalability.wall_seconds)
  | _ -> ()

let extension_suite =
  [
    ("scalability rows", `Slow, scalability_rows);
    ("policy bridge comparable", `Slow, policy_bridge_comparable);
    ("skew inferred", `Slow, skew_inferred);
    ("versus2 runs", `Slow, versus2_runs);
    ("two-hop family", `Slow, two_hop_family);
    ("bursty cross family", `Slow, bursty_cross_family);
  ]

let suite = suite @ extension_suite

(* --- ext-faults: misspecification + recovery --- *)

let faults_rate_flap_acceptance () =
  (* The PR's acceptance criterion, verbatim: under the unmodeled
     link-rate flap with the default seed, the recovering sender's
     rejection streak stays bounded by the ladder's [reseed_after] AND
     its post-fault throughput strictly beats the no-recovery baseline. *)
  let scenario = E.Ext_faults.run_rate_flap () in
  let streak_bounded, throughput_improved = E.Ext_faults.rate_flap_acceptance scenario in
  Alcotest.(check bool) "rejection streak bounded by reseed_after" true streak_bounded;
  Alcotest.(check bool) "recovery beats no-recovery post-fault" true throughput_improved;
  let recovery = E.Ext_faults.(find_run scenario With_recovery) in
  let baseline = E.Ext_faults.(find_run scenario No_recovery) in
  Alcotest.(check bool) "recovery reseeded at least once" true
    (recovery.E.Ext_faults.reseeds >= 1);
  Alcotest.(check bool) "baseline never reseeds" true (baseline.E.Ext_faults.reseeds = 0);
  Alcotest.(check bool) "baseline streak unbounded" true
    (baseline.E.Ext_faults.max_streak > scenario.E.Ext_faults.reseed_after);
  match recovery.E.Ext_faults.rehealed_at with
  | None -> Alcotest.fail "recovering sender never re-healed"
  | Some t ->
    Alcotest.(check bool) "re-healed after the onset" true (t >= scenario.E.Ext_faults.onset)

let faults_oracle_bounds_recovery () =
  (* The oracle (reseed installs the exact post-fault truth) is the upper
     bound: blind recovery cannot beat it on post-fault throughput. *)
  let scenario = E.Ext_faults.run_rate_flap () in
  let recovery = E.Ext_faults.(find_run scenario With_recovery) in
  let oracle = E.Ext_faults.(find_run scenario Oracle) in
  Alcotest.(check bool) "oracle at least as good" true
    (oracle.E.Ext_faults.post_throughput >= recovery.E.Ext_faults.post_throughput -. 1e-9)

let faults_all_scenarios_bound_streaks () =
  (* Across every fault class, the ladder keeps the recovering sender's
     rejection streak within its bound while reseeds remain. *)
  let scenarios = E.Ext_faults.run_all ~duration:80.0 () in
  Alcotest.(check int) "four fault classes" 4 (List.length scenarios);
  List.iter
    (fun s ->
      let r = E.Ext_faults.(find_run s With_recovery) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: recovery streak %d <= %d" s.E.Ext_faults.name
           r.E.Ext_faults.max_streak s.E.Ext_faults.reseed_after)
        true
        (r.E.Ext_faults.max_streak <= s.E.Ext_faults.reseed_after))
    scenarios

let faults_suite =
  [
    ("faults rate-flap acceptance", `Slow, faults_rate_flap_acceptance);
    ("faults oracle bounds recovery", `Slow, faults_oracle_bounds_recovery);
    ("faults all scenarios bound streaks", `Slow, faults_all_scenarios_bound_streaks);
  ]

let suite = suite @ faults_suite
