(* Tests for the Bayesian engine: log-space arithmetic, the belief filter,
   compaction, pruning, cap policies, priors. *)
open Utc_net
module Belief = Utc_inference.Belief
module Logw = Utc_inference.Logw
module Priors = Utc_inference.Priors
module Forward = Utc_model.Forward
module Mstate = Utc_model.Mstate

(* --- Logw --- *)

let logsumexp_basics () =
  Alcotest.(check (float 1e-12)) "single" 0.0 (Logw.logsumexp [ 0.0 ]);
  Alcotest.(check (float 1e-12)) "two equal" (log 2.0) (Logw.logsumexp [ 0.0; 0.0 ]);
  Alcotest.(check bool) "empty" true (Logw.logsumexp [] = neg_infinity);
  Alcotest.(check bool) "all -inf" true (Logw.logsumexp [ neg_infinity ] = neg_infinity);
  (* Stability with large magnitudes. *)
  Alcotest.(check (float 1e-9)) "shifted" (1000.0 +. log 2.0)
    (Logw.logsumexp [ 1000.0; 1000.0 ])

let normalize_sums_to_one () =
  let normalized = Logw.normalize [ -1.0; -2.0; -3.0 ] in
  let total = List.fold_left (fun acc x -> acc +. exp x) 0.0 normalized in
  Alcotest.(check (float 1e-12)) "sums to 1" 1.0 total

let entropy_properties () =
  Alcotest.(check (float 1e-12)) "point mass" 0.0 (Logw.entropy [ 0.0 ]);
  Alcotest.(check (float 1e-9)) "uniform over 4" (log 4.0)
    (Logw.entropy [ 0.0; 0.0; 0.0; 0.0 ])

let entropy_nonneg_prop =
  QCheck.Test.make ~name:"entropy is non-negative and at most log n" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 12) (float_bound_exclusive 10.0))
    (fun ws ->
      let logws = List.map (fun w -> log (w +. 1e-6)) ws in
      let h = Logw.entropy logws in
      h >= -1e-9 && h <= log (float_of_int (List.length ws)) +. 1e-9)

(* --- Belief on a tiny family --- *)

type params = { rate : float; fill : int }

let topology p =
  {
    Topology.sources = [ Topology.endpoint Flow.Primary ];
    shared =
      Topology.series
        [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:p.rate ];
  }

let seed_of ?(config = Forward.default_config) p weight =
  let compiled = Compiled.compile_exn (topology p) in
  let prepared = Forward.prepare config compiled in
  let prefill =
    if p.fill = 0 then []
    else
      [
        ( List.hd (Compiled.station_ids compiled),
          List.init p.fill (fun i -> Packet.make ~flow:Flow.Cross ~seq:(-1 - i) ~sent_at:0.0 ()) );
      ]
  in
  (p, weight, prepared, Mstate.initial ~prefill ~epoch:1.0 compiled)

let small_family () =
  List.map
    (fun p -> seed_of p 1.0)
    [
      { rate = 6_000.0; fill = 0 };
      { rate = 12_000.0; fill = 0 };
      { rate = 12_000.0; fill = 2 };
      { rate = 24_000.0; fill = 0 };
    ]

let send ~at ~seq = (at, Packet.make ~flow:Flow.Primary ~seq ~sent_at:at ())

let creation_normalizes () =
  let belief = Belief.create (small_family ()) in
  Alcotest.(check int) "size" 4 (Belief.size belief);
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 (Belief.posterior belief) in
  Alcotest.(check (float 1e-9)) "posterior sums to 1" 1.0 total

let update_identifies_rate () =
  let belief = Belief.create (small_family ()) in
  (* Truth: 12,000 bit/s, empty. Send at 0, ACK at 1.0. *)
  let belief, status =
    Belief.update belief ~sends:[ send ~at:0.0 ~seq:0 ]
      ~acks:[ { Belief.seq = 0; time = 1.0 } ]
      ~now:1.0 ()
  in
  Alcotest.(check bool) "consistent" true (status = Belief.Consistent);
  let best, mass = Belief.map_estimate belief in
  Alcotest.(check (float 0.0)) "rate identified" 12_000.0 best.rate;
  Alcotest.(check int) "fill identified" 0 best.fill;
  Alcotest.(check (float 1e-9)) "certain" 1.0 mass

let update_uses_missing_ack () =
  (* No ACK by 2.0 for a send at 0: under a lossless family every
     hypothesis predicting delivery <= 2 is inconsistent; the slow-rate
     and prefilled hypotheses survive. *)
  let belief = Belief.create (small_family ()) in
  let belief, status =
    Belief.update belief ~sends:[ send ~at:0.0 ~seq:0 ] ~acks:[] ~now:1.5 ()
  in
  Alcotest.(check bool) "consistent" true (status = Belief.Consistent);
  let survivors = List.map (fun (p, _) -> (p.rate, p.fill)) (Belief.posterior belief) in
  Alcotest.(check bool) "fast empty hypotheses dead" true
    (not (List.mem (12_000.0, 0) survivors) && not (List.mem (24_000.0, 0) survivors));
  Alcotest.(check bool) "slow or prefilled alive" true
    (List.mem (6_000.0, 0) survivors && List.mem (12_000.0, 2) survivors)

let all_rejected_falls_back () =
  let belief = Belief.create [ seed_of { rate = 12_000.0; fill = 0 } 1.0 ] in
  (* An ACK at a time no hypothesis can produce. *)
  let belief, status =
    Belief.update belief ~sends:[ send ~at:0.0 ~seq:0 ]
      ~acks:[ { Belief.seq = 0; time = 0.123 } ]
      ~now:0.2 ()
  in
  Alcotest.(check bool) "rejected" true (status = Belief.All_rejected);
  Alcotest.(check int) "belief survives unconditioned" 1 (Belief.size belief)

let loss_likelihood_weighting () =
  (* One hypothesis, last-mile loss 0.5: a missing ACK halves the weight
     relative to... itself (renormalized to 1), but two sends with one
     ACK and one miss keep the hypothesis alive. *)
  let lossy =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.series
          [ Topology.throughput ~rate_bps:12_000.0; Topology.loss ~rate:0.5 ];
    }
  in
  let compiled = Compiled.compile_exn lossy in
  let prepared = Forward.prepare Forward.default_config compiled in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let belief = Belief.create [ ((), 1.0, prepared, state) ] in
  let belief, status =
    Belief.update belief
      ~sends:[ send ~at:0.0 ~seq:0; send ~at:1.0 ~seq:1 ]
      ~acks:[ { Belief.seq = 1; time = 2.0 } ]
      ~now:3.0 ()
  in
  Alcotest.(check bool) "alive under loss" true (status = Belief.Consistent);
  Alcotest.(check int) "single hypothesis" 1 (Belief.size belief)

let fork_and_likelihood_agree () =
  (* The posterior over rates must be the same whether last-mile loss is
     forked or likelihood-weighted. *)
  let lossy rate =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.series
          [
            Topology.buffer ~capacity_bits:96_000;
            Topology.throughput ~rate_bps:rate;
            Topology.loss ~rate:0.3;
          ];
    }
  in
  let family config =
    List.map
      (fun rate ->
        let compiled = Compiled.compile_exn (lossy rate) in
        (rate, 1.0, Forward.prepare config compiled, Mstate.initial ~epoch:1.0 compiled))
      [ 6_000.0; 12_000.0 ]
  in
  let scenario config =
    let belief = Belief.create (family config) in
    let belief, _ =
      Belief.update belief
        ~sends:[ send ~at:0.0 ~seq:0; send ~at:2.0 ~seq:1 ]
        ~acks:[ { Belief.seq = 0; time = 1.0 } ]
        ~now:4.5 ()
    in
    Belief.posterior belief
  in
  let likelihood = scenario Forward.default_config in
  let forked = scenario { Forward.default_config with loss_mode = `Fork } in
  List.iter2
    (fun (ra, wa) (rb, wb) ->
      Alcotest.(check (float 0.0)) "same order" ra rb;
      Alcotest.(check (float 1e-9)) "same mass" wa wb)
    likelihood forked

let compaction_merges_forks () =
  (* Fork-mode loss creates two branches that reconverge once the packet
     is out of the system; compaction must merge them back to one. *)
  let lossy =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.series
          [ Topology.throughput ~rate_bps:12_000.0; Topology.loss ~rate:0.5 ];
    }
  in
  let config = { Forward.default_config with loss_mode = `Fork } in
  let compiled = Compiled.compile_exn lossy in
  let prepared = Forward.prepare config compiled in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let belief = Belief.create [ ((), 1.0, prepared, state) ] in
  (* Advance without conditioning: both fork branches survive, then
     compact into one because the states converge. *)
  let belief = Belief.advance belief ~sends:[ send ~at:0.0 ~seq:0 ] ~now:5.0 () in
  Alcotest.(check int) "compacted" 1 (Belief.size belief)

let compaction_ignores_float_sharing () =
  (* Two copies of a prefilled state: in one, the packet in service and
     its [Complete] event hold their completion time in one float box;
     in the other, in two boxes with the same bits, as [Belief.reseed]'s
     anchor builds states. The canonical bytes record the sharing and
     tell the two apart; [Mstate.equal] does not, so compaction merges
     them. *)
  let p = { rate = 12_000.0; fill = 2 } in
  let _, _, prepared, state = seed_of p 1.0 in
  let s = Mstate.station state 0 in
  let m, completion =
    match s.Mstate.in_service with
    | Some service -> service
    | None -> Alcotest.fail "prefilled station is idle"
  in
  let with_times ~service ~event =
    {
      (Mstate.set_node state 0 (Mstate.MStation { s with Mstate.in_service = Some (m, service) })) with
      Mstate.pending =
        List.map
          (fun (e : Mstate.event) ->
            match e.Mstate.ev with
            | Mstate.Complete _ -> { e with Mstate.time = event }
            | Mstate.Arrive _ | Mstate.Pinger_emit _ | Mstate.Gate_epoch _ | Mstate.Gate_toggle _ -> e)
          state.Mstate.pending;
    }
  in
  let shared = with_times ~service:completion ~event:completion in
  let separate =
    with_times ~service:completion ~event:(Int64.float_of_bits (Int64.bits_of_float completion))
  in
  Alcotest.(check bool) "canonical bytes differ" false
    (String.equal (Mstate.canonical shared) (Mstate.canonical separate));
  Alcotest.(check bool) "equal" true (Mstate.equal shared separate);
  Alcotest.(check int) "same hash" (Mstate.hash shared) (Mstate.hash separate);
  let belief = Belief.create [ (p, 1.0, prepared, shared); (p, 1.0, prepared, separate) ] in
  let belief = Belief.advance belief ~sends:[] ~now:0.5 () in
  Alcotest.(check int) "merged" 1 (Belief.size belief)

let top_k_cap () =
  let seeds = List.init 20 (fun i -> seed_of { rate = 1_000.0 *. float_of_int (i + 1); fill = 0 } 1.0) in
  let belief = Belief.create ~max_hyps:5 seeds in
  Alcotest.(check int) "capped at creation? no - cap applies on update" 20 (Belief.size belief);
  let belief = Belief.advance belief ~sends:[] ~now:0.5 () in
  Alcotest.(check int) "capped" 5 (Belief.size belief);
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 (Belief.posterior belief) in
  Alcotest.(check (float 1e-9)) "renormalized" 1.0 total

let resample_cap () =
  let seeds = List.init 50 (fun i -> seed_of { rate = 500.0 *. float_of_int (i + 1); fill = 0 } 1.0) in
  let rng = Utc_sim.Rng.create ~seed:77 in
  let belief = Belief.create ~max_hyps:10 ~cap_policy:(`Resample rng) seeds in
  let belief = Belief.advance belief ~sends:[] ~now:0.5 () in
  Alcotest.(check bool) "bounded" true (Belief.size belief <= 10);
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 (Belief.posterior belief) in
  Alcotest.(check (float 1e-9)) "weights sum to 1" 1.0 total

let marginal_and_mean () =
  let belief = Belief.create (small_family ()) in
  let by_rate = Belief.marginal belief ~project:(fun p -> p.rate) in
  let mass_12k = List.assoc 12_000.0 by_rate in
  Alcotest.(check (float 1e-9)) "two of four cells" 0.5 mass_12k;
  let mean_rate = Belief.mean belief ~value:(fun p -> p.rate) in
  Alcotest.(check (float 1e-6)) "prior mean" 13_500.0 mean_rate;
  Alcotest.(check bool) "entropy of 4 cells" true (Belief.entropy belief > log 3.9)

let support_is_sorted () =
  let belief = Belief.create [ seed_of { rate = 1_000.0; fill = 0 } 0.1; seed_of { rate = 2_000.0; fill = 0 } 0.9 ] in
  match Belief.support belief with
  | first :: _ -> Alcotest.(check (float 0.0)) "heaviest first" 2_000.0 first.Belief.params.rate
  | [] -> Alcotest.fail "empty support"

(* --- Priors --- *)

let grid_helpers () =
  Alcotest.(check (list (float 1e-9))) "float grid" [ 1.0; 1.5; 2.0 ]
    (Priors.grid_float ~lo:1.0 ~hi:2.0 ~step:0.5);
  Alcotest.(check (list int)) "int grid" [ 0; 2; 4 ] (Priors.grid_int ~lo:0 ~hi:4 ~step:2);
  let u = Priors.uniform [ "a"; "b" ] in
  Alcotest.(check (float 1e-12)) "uniform weight" 0.5 (snd (List.hd u))

let paper_prior_shape () =
  let prior = Priors.paper_prior () in
  (* 7 speeds x 4 ratios x 5 losses x 4 buffers x (buffer/12000 + 1) fills. *)
  let expected = 7 * 4 * 5 * ((72_000 / 12_000 + 1) + (84_000 / 12_000 + 1) + (96_000 / 12_000 + 1) + (108_000 / 12_000 + 1)) in
  Alcotest.(check int) "grid size" expected (List.length prior);
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 prior in
  Alcotest.(check (float 1e-9)) "uniform mass" 1.0 total;
  Alcotest.(check bool) "truth in support" true
    (List.exists (fun (p, _) -> p = Priors.paper_truth) prior)

let paper_truth_values () =
  let t = Priors.paper_truth in
  Alcotest.(check (float 0.0)) "link" 12_000.0 t.Priors.link_bps;
  Alcotest.(check (float 1e-12)) "pinger 0.7 pkt/s" 0.7 t.Priors.pinger_pps;
  Alcotest.(check (float 0.0)) "loss" 0.2 t.Priors.loss_rate;
  Alcotest.(check int) "buffer" 96_000 t.Priors.buffer_bits

let fig2_hypothesis_prefill () =
  let config = Forward.default_config in
  let params = { Priors.paper_truth with Priors.initial_packets = 3 } in
  let _, state = Priors.fig2_hypothesis ~config params in
  let station = 0 in
  (* The fig2 model compiles station first? find it. *)
  ignore station;
  let bits =
    Array.to_list state.Mstate.nodes
    |> List.filter_map (function
         | Mstate.MStation _ -> Some ()
         | Mstate.MGate _ | Mstate.MEither _ | Mstate.MMultipath _ | Mstate.MStateless -> None)
  in
  Alcotest.(check int) "one station" 1 (List.length bits)

let suite =
  [
    ("logsumexp basics", `Quick, logsumexp_basics);
    ("normalize sums to one", `Quick, normalize_sums_to_one);
    ("entropy properties", `Quick, entropy_properties);
    QCheck_alcotest.to_alcotest entropy_nonneg_prop;
    ("creation normalizes", `Quick, creation_normalizes);
    ("update identifies rate", `Quick, update_identifies_rate);
    ("update uses missing ack", `Quick, update_uses_missing_ack);
    ("all rejected falls back", `Quick, all_rejected_falls_back);
    ("loss likelihood weighting", `Quick, loss_likelihood_weighting);
    ("fork and likelihood agree", `Quick, fork_and_likelihood_agree);
    ("compaction merges forks", `Quick, compaction_merges_forks);
    ("compaction ignores float sharing", `Quick, compaction_ignores_float_sharing);
    ("top-k cap", `Quick, top_k_cap);
    ("resample cap", `Quick, resample_cap);
    ("marginal and mean", `Quick, marginal_and_mean);
    ("support sorted", `Quick, support_is_sorted);
    ("grid helpers", `Quick, grid_helpers);
    ("paper prior shape", `Quick, paper_prior_shape);
    ("paper truth values", `Quick, paper_truth_values);
    ("fig2 hypothesis prefill", `Quick, fig2_hypothesis_prefill);
  ]

(* --- observation offset (return-path delay / clock skew) --- *)

type offset_params = { rate : float; offset : float }

let offset_family () =
  List.concat_map
    (fun rate ->
      List.map
        (fun offset ->
          let compiled =
            Compiled.compile_exn
              {
                Topology.sources = [ Topology.endpoint Flow.Primary ];
                shared =
                  Topology.series
                    [
                      Topology.buffer ~capacity_bits:96_000;
                      Topology.throughput ~rate_bps:rate;
                    ];
              }
          in
          ( { rate; offset },
            1.0,
            Forward.prepare Forward.default_config compiled,
            Mstate.initial ~epoch:1.0 compiled ))
        [ 0.0; 0.5; 1.0 ])
    [ 6_000.0; 12_000.0 ]

let obs_offset_identifies_return_delay () =
  let belief =
    Belief.create ~obs_offset:(fun p -> p.offset) (offset_family ())
  in
  (* Truth: rate 12k (delivery at 1.0), return delay 0.5 -> ACK at 1.5. *)
  let belief, status =
    Belief.update belief ~sends:[ send ~at:0.0 ~seq:0 ]
      ~acks:[ { Belief.seq = 0; time = 1.5 } ]
      ~now:1.5 ()
  in
  Alcotest.(check bool) "consistent" true (status = Belief.Consistent);
  let survivors = List.map (fun (p, _) -> (p.rate, p.offset)) (Belief.posterior belief) in
  Alcotest.(check bool) "correct joint cell kept" true (List.mem (12_000.0, 0.5) survivors);
  (* (6000, ...) would deliver at 2.0; (12000, 0) would ack at 1.0;
     (12000, 1.0) would ack at 2.0: all inconsistent. *)
  Alcotest.(check bool) "wrong offsets dead" true
    (not (List.mem (12_000.0, 0.0) survivors) && not (List.mem (12_000.0, 1.0) survivors))

let obs_offset_defers_pending_judgment () =
  (* At now = 1.2 the (12000, 0.5) hypothesis' ACK is not due (1.5): a
     missing ACK must not kill or penalize it, while (12000, 0) is
     rejected because its ACK was due at 1.0. *)
  let belief = Belief.create ~obs_offset:(fun p -> p.offset) (offset_family ()) in
  let belief, status =
    Belief.update belief ~sends:[ send ~at:0.0 ~seq:0 ] ~acks:[] ~now:1.2 ()
  in
  Alcotest.(check bool) "consistent" true (status = Belief.Consistent);
  let survivors = List.map (fun (p, _) -> (p.rate, p.offset)) (Belief.posterior belief) in
  Alcotest.(check bool) "pending hypothesis alive" true (List.mem (12_000.0, 0.5) survivors);
  Alcotest.(check bool) "overdue hypothesis dead" false (List.mem (12_000.0, 0.0) survivors);
  (* The pending ACK is then matched in a later window. *)
  let belief, status =
    Belief.update belief ~sends:[] ~acks:[ { Belief.seq = 0; time = 1.5 } ] ~now:1.6 ()
  in
  Alcotest.(check bool) "later window consistent" true (status = Belief.Consistent);
  let survivors = List.map (fun (p, _) -> (p.rate, p.offset)) (Belief.posterior belief) in
  Alcotest.(check bool) "joint cell confirmed" true (List.mem (12_000.0, 0.5) survivors)

let offset_suite =
  [
    ("obs offset identifies return delay", `Quick, obs_offset_identifies_return_delay);
    ("obs offset defers pending judgment", `Quick, obs_offset_defers_pending_judgment);
  ]

let suite = suite @ offset_suite

(* --- Particle diagnostics --- *)

let particle_ess_uniform () =
  let belief = Belief.create (small_family ()) in
  Alcotest.(check (float 1e-6)) "uniform ESS = n" 4.0 (Utc_inference.Particle.ess belief);
  Alcotest.(check bool) "not degenerate" false (Utc_inference.Particle.degenerate belief);
  Alcotest.(check int) "diversity" 4 (Utc_inference.Particle.diversity belief)

let particle_ess_after_collapse () =
  let belief = Belief.create (small_family ()) in
  let belief, _ =
    Belief.update belief ~sends:[ send ~at:0.0 ~seq:0 ]
      ~acks:[ { Belief.seq = 0; time = 1.0 } ]
      ~now:1.0 ()
  in
  (* Posterior collapsed to one cell: ESS = size = 1; degenerate is false
     because ESS/size = 1. *)
  Alcotest.(check (float 1e-6)) "ESS 1" 1.0 (Utc_inference.Particle.ess belief);
  Alcotest.(check bool) "full-collapse is fine on a grid" false
    (Utc_inference.Particle.degenerate belief)

let particle_create_bounded () =
  let seeds = List.init 40 (fun i -> seed_of { rate = 500.0 *. float_of_int (i + 1); fill = 0 } 1.0) in
  let belief = Utc_inference.Particle.create ~particles:8 ~seed:3 seeds in
  let belief = Belief.advance belief ~sends:[] ~now:0.5 () in
  Alcotest.(check bool) "bounded by particle count" true (Belief.size belief <= 8);
  Alcotest.(check bool) "ess within bounds" true
    (Utc_inference.Particle.ess belief <= float_of_int (Belief.size belief) +. 1e-9)

let particle_suite =
  [
    ("particle ess uniform", `Quick, particle_ess_uniform);
    ("particle ess after collapse", `Quick, particle_ess_after_collapse);
    ("particle create bounded", `Quick, particle_create_bounded);
  ]

let suite = suite @ particle_suite

(* --- Reseed, likelihood floor, degeneracy monitor --- *)

let reseed_replaces_and_anchors () =
  let belief = Belief.create (small_family ()) in
  (* Collapse the posterior onto (12000, 0), then advance to 10. *)
  let belief, _ =
    Belief.update belief ~sends:[ send ~at:0.0 ~seq:0 ]
      ~acks:[ { Belief.seq = 0; time = 1.0 } ]
      ~now:1.0 ()
  in
  let belief = Belief.advance belief ~sends:[] ~now:10.0 () in
  let fresh = [ seed_of { rate = 6_000.0; fill = 0 } 1.0; seed_of { rate = 24_000.0; fill = 0 } 3.0 ] in
  let belief = Belief.reseed belief ~seeds:fresh ~now:10.0 () in
  Alcotest.(check int) "old posterior replaced" 2 (Belief.size belief);
  Alcotest.(check (float 1e-9)) "anchored at now" 10.0 (Belief.now belief);
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 (Belief.posterior belief) in
  Alcotest.(check (float 1e-9)) "normalized" 1.0 total;
  (* The anchoring is behavioral, not just bookkeeping: a fresh 24k
     hypothesis must predict service of a send at 10 exactly as it would
     have at time 0 - delivery at 10.5 - and survive that observation. *)
  let belief, status =
    Belief.update belief ~sends:[ send ~at:10.0 ~seq:1 ]
      ~acks:[ { Belief.seq = 1; time = 10.5 } ]
      ~now:10.5 ()
  in
  Alcotest.(check bool) "consistent after reseed" true (status = Belief.Consistent);
  let best, mass = Belief.map_estimate belief in
  Alcotest.(check (float 0.0)) "fresh rate identified" 24_000.0 best.rate;
  Alcotest.(check (float 1e-9)) "certain" 1.0 mass

let reseed_keep_splits_mass () =
  let belief = Belief.create [ seed_of { rate = 12_000.0; fill = 0 } 1.0 ] in
  let fresh = [ seed_of { rate = 6_000.0; fill = 0 } 1.0 ] in
  let belief = Belief.reseed belief ~seeds:fresh ~keep:0.25 ~now:0.0 () in
  let posterior = List.map (fun ((p : params), w) -> (p.rate, w)) (Belief.posterior belief) in
  Alcotest.(check (float 1e-9)) "kept mass" 0.25 (List.assoc 12_000.0 posterior);
  Alcotest.(check (float 1e-9)) "fresh mass" 0.75 (List.assoc 6_000.0 posterior)

let reseed_raises () =
  let belief = Belief.create [ seed_of { rate = 12_000.0; fill = 0 } 1.0 ] in
  let belief = Belief.advance belief ~sends:[] ~now:5.0 () in
  let fresh = [ seed_of { rate = 6_000.0; fill = 0 } 1.0 ] in
  Alcotest.check_raises "keep out of range"
    (Invalid_argument "Belief.reseed: keep must be in [0, 1)") (fun () ->
      ignore (Belief.reseed belief ~seeds:fresh ~keep:1.0 ~now:5.0 ()));
  Alcotest.check_raises "now in the past"
    (Invalid_argument "Belief.reseed: now is before the belief's time") (fun () ->
      ignore (Belief.reseed belief ~seeds:fresh ~now:1.0 ()));
  Alcotest.check_raises "no positive-weight seed"
    (Invalid_argument "Belief.reseed: no fresh seeds with positive weight") (fun () ->
      ignore (Belief.reseed belief ~seeds:[ seed_of { rate = 6_000.0; fill = 0 } 0.0 ] ~now:5.0 ()))

let ll_floor_survives_impossible_ack () =
  (* Same impossible observation as all_rejected_falls_back, but with a
     likelihood floor the hypothesis is dented, not removed. *)
  let seeds = [ seed_of { rate = 12_000.0; fill = 0 } 1.0 ] in
  let belief = Belief.create ~ll_floor:0.01 seeds in
  let belief, status =
    Belief.update belief ~sends:[ send ~at:0.0 ~seq:0 ]
      ~acks:[ { Belief.seq = 0; time = 0.123 } ]
      ~now:0.2 ()
  in
  Alcotest.(check bool) "floored, not rejected" true (status = Belief.Consistent);
  Alcotest.(check int) "hypothesis survives" 1 (Belief.size belief)

let ll_floor_still_discriminates () =
  (* With a floor, consistent hypotheses must still dominate violating
     ones after normalization. *)
  let seeds = [ seed_of { rate = 6_000.0; fill = 0 } 1.0; seed_of { rate = 12_000.0; fill = 0 } 1.0 ] in
  let belief = Belief.create ~ll_floor:0.01 seeds in
  let belief, status =
    Belief.update belief ~sends:[ send ~at:0.0 ~seq:0 ]
      ~acks:[ { Belief.seq = 0; time = 1.0 } ]
      ~now:1.0 ()
  in
  Alcotest.(check bool) "consistent" true (status = Belief.Consistent);
  let best, mass = Belief.map_estimate belief in
  Alcotest.(check (float 0.0)) "truth on top" 12_000.0 best.rate;
  Alcotest.(check bool) "dominates the floored one" true (mass > 0.95)

let ll_floor_validation () =
  Alcotest.check_raises "floor must be in (0, 1)"
    (Invalid_argument "Belief.create: ll_floor must be in (0, 1)") (fun () ->
      ignore (Belief.create ~ll_floor:1.0 [ seed_of { rate = 12_000.0; fill = 0 } 1.0 ]))

module Degeneracy = Utc_inference.Degeneracy

let degeneracy_streaks () =
  let monitor = Degeneracy.create () in
  let belief = Belief.create (small_family ()) in
  ignore (Degeneracy.observe monitor belief Belief.All_rejected);
  ignore (Degeneracy.observe monitor belief Belief.All_rejected);
  Alcotest.(check int) "streak counts" 2 (Degeneracy.streak monitor);
  let signals = Degeneracy.observe monitor belief Belief.All_rejected in
  Alcotest.(check bool) "limit reached -> signal" true
    (List.mem Degeneracy.Rejection_streak signals);
  ignore (Degeneracy.observe monitor belief Belief.Consistent);
  Alcotest.(check int) "consistent clears" 0 (Degeneracy.streak monitor);
  Alcotest.(check int) "worst preserved" 3 (Degeneracy.worst_streak monitor);
  Degeneracy.reset monitor;
  Alcotest.(check int) "reset keeps high-water mark" 3 (Degeneracy.worst_streak monitor)

let degeneracy_probes () =
  let belief = Belief.create (small_family ()) in
  Alcotest.(check (float 1e-9)) "uniform top weight" 0.25 (Degeneracy.top_weight belief);
  Alcotest.(check (float 1e-9)) "uniform ess ratio" 1.0 (Degeneracy.ess_ratio belief);
  let belief, _ =
    Belief.update belief ~sends:[ send ~at:0.0 ~seq:0 ]
      ~acks:[ { Belief.seq = 0; time = 1.0 } ]
      ~now:1.0 ()
  in
  Alcotest.(check (float 1e-9)) "collapsed top weight" 1.0 (Degeneracy.top_weight belief)

let robustness_suite =
  [
    ("reseed replaces and anchors", `Quick, reseed_replaces_and_anchors);
    ("reseed keep splits mass", `Quick, reseed_keep_splits_mass);
    ("reseed raises", `Quick, reseed_raises);
    ("ll_floor survives impossible ack", `Quick, ll_floor_survives_impossible_ack);
    ("ll_floor still discriminates", `Quick, ll_floor_still_discriminates);
    ("ll_floor validation", `Quick, ll_floor_validation);
    ("degeneracy streaks", `Quick, degeneracy_streaks);
    ("degeneracy probes", `Quick, degeneracy_probes);
  ]

let suite = suite @ robustness_suite
