(* Tests for the Bayesian engine: log-space arithmetic, the belief filter,
   compaction, pruning, cap policies, priors. *)
open Utc_net
module Belief = Utc_inference.Belief
module Logw = Utc_inference.Logw
module Priors = Utc_inference.Priors
module Forward = Utc_model.Forward
module Mstate = Utc_model.Mstate

(* Every hypothesis, heaviest first. *)
let support belief = Belief.top belief ~n:(Belief.size belief)

(* --- Logw --- *)

let logsumexp_basics () =
  Alcotest.(check (float 1e-12)) "single" 0.0 (Logw.logsumexp [ 0.0 ]);
  Alcotest.(check (float 1e-12)) "two equal" (log 2.0) (Logw.logsumexp [ 0.0; 0.0 ]);
  Alcotest.(check bool) "empty" true (Logw.logsumexp [] = neg_infinity);
  Alcotest.(check bool) "all -inf" true (Logw.logsumexp [ neg_infinity ] = neg_infinity);
  (* Stability with large magnitudes. *)
  Alcotest.(check (float 1e-9)) "shifted" (1000.0 +. log 2.0)
    (Logw.logsumexp [ 1000.0; 1000.0 ])

let entropy_normalizes () =
  Alcotest.(check (float 1e-12)) "a shift changes nothing" (Logw.entropy [ -1.0; -2.0; -3.0 ])
    (Logw.entropy [ 4.0; 3.0; 2.0 ]);
  Alcotest.(check (float 1e-12)) "unnormalized uniform over 2" (log 2.0) (Logw.entropy [ 5.0; 5.0 ])

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

(* Oracle for [Belief.posterior]: params grouped by their marshalled
   bytes, groups in first-seen store order, weights summed in store
   order, heaviest group first. *)
let marshal_posterior belief =
  let table = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (h : _ Belief.hypothesis) ->
      let k = Marshal.to_string h.params [] in
      match Hashtbl.find_opt table k with
      | None ->
        Hashtbl.replace table k (h.params, exp h.logw);
        order := k :: !order
      | Some (p, w) -> Hashtbl.replace table k (p, w +. exp h.logw))
    (support belief);
  List.sort (fun (_, a) (_, b) -> Float.compare b a) (List.rev_map (Hashtbl.find table) !order)

(* Params built afresh on each call, so equal ones are not physically
   equal, and whose structural hashes collide: [Hashtbl.hash] reads ten
   floats of the list and stops before the last, where they differ. *)
let colliding_params k = List.init 16 (fun _ -> 0.5) @ [ float_of_int k /. 4.0 ]

let posterior_matches_marshal_prop =
  QCheck.Test.make ~name:"posterior groups params as their marshalled bytes do" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 24) (triple (int_bound 5) bool (float_range 0.01 1.0)))
    (fun cells ->
      let compiled = Compiled.compile_exn (topology { rate = 12_000.0; fill = 0 }) in
      let prepared = Forward.prepare Forward.default_config compiled in
      let state = Mstate.initial ~epoch:1.0 compiled in
      (* [share] reuses the last params built for [k], so groups mix
         physically equal and separately built members. *)
      let built = Hashtbl.create 8 in
      let seed (k, share, weight) =
        let params =
          match Hashtbl.find_opt built k with
          | Some p when share -> p
          | Some _ | None ->
            let p = colliding_params k in
            Hashtbl.replace built k p;
            p
        in
        (params, weight, prepared, state)
      in
      let belief = Belief.create (List.map seed cells) in
      let same (p, w) (q, v) = p = q && Int64.equal (Int64.bits_of_float w) (Int64.bits_of_float v) in
      List.equal same (Belief.posterior belief) (marshal_posterior belief))

(* Every hypothesis carries its own state's hash. *)
let check_hashes belief =
  List.iter
    (fun (h : _ Belief.hypothesis) ->
      Alcotest.(check int) "stored hash" (Mstate.hash h.Belief.state) h.Belief.hash)
    (support belief)

(* A step builds no array over 256 words from a young value, which would
   make [Array.make] run a whole minor collection first: the slot and
   store columns start from immediates or a static placeholder state.
   With a minor heap larger than one update of the §4 prior allocates,
   no collection falls inside the update. *)
let step_forces_no_minor_collection () =
  let belief = Belief.create (Priors.seeds ~config:Forward.default_config (Priors.paper_prior ())) in
  Alcotest.(check bool) "at least 1,000 hypotheses" true (Belief.size belief >= 1_000);
  let saved = Gc.get () in
  let minor_heap = 4 * 1024 * 1024 in
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      Gc.set { saved with Gc.minor_heap_size = minor_heap };
      let collections0 = (Gc.quick_stat ()).Gc.minor_collections in
      let words0 = Gc.minor_words () in
      let updated, _ =
        Belief.update belief ~sends:[ send ~at:0.0 ~seq:0; send ~at:0.2 ~seq:1 ] ~acks:[] ~now:1.0 ()
      in
      let words = Gc.minor_words () -. words0 in
      let collections = (Gc.quick_stat ()).Gc.minor_collections - collections0 in
      Alcotest.(check bool) "the update fits in the minor heap" true (words < float_of_int minor_heap);
      Alcotest.(check bool) "the update keeps over 256 hypotheses" true (Belief.size updated > 256);
      Alcotest.(check int) "minor collections during the update" 0 collections)

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
  check_hashes belief;
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 (Belief.posterior belief) in
  Alcotest.(check (float 1e-9)) "weights sum to 1" 1.0 total

let marginal_and_mean () =
  let belief = Belief.create (small_family ()) in
  let posterior = Belief.posterior belief in
  let mass_12k =
    List.fold_left
      (fun acc ((p : params), w) -> if Float.equal p.rate 12_000.0 then acc +. w else acc)
      0.0 posterior
  in
  Alcotest.(check (float 1e-9)) "two of four cells" 0.5 mass_12k;
  let mean_rate = List.fold_left (fun acc ((p : params), w) -> acc +. (w *. p.rate)) 0.0 posterior in
  Alcotest.(check (float 1e-6)) "prior mean" 13_500.0 mean_rate;
  Alcotest.(check bool) "entropy of 4 cells" true
    (Belief.posterior_entropy (Belief.posterior belief) > log 3.9)

let support_is_sorted () =
  let belief = Belief.create [ seed_of { rate = 1_000.0; fill = 0 } 0.1; seed_of { rate = 2_000.0; fill = 0 } 0.9 ] in
  match support belief with
  | first :: _ -> Alcotest.(check (float 0.0)) "heaviest first" 2_000.0 first.Belief.params.rate
  | [] -> Alcotest.fail "empty support"

(* [create]'s sort against [List.stable_sort]: heaviest first, ties in
   seed order, over beliefs large enough for the merge passes. Weights
   are 0 or powers of two, so ties are common and distinct weights stay
   distinct after normalization. *)
let create_sort_prop =
  let _, _, prepared, state = seed_of { rate = 12_000.0; fill = 0 } 1.0 in
  QCheck.Test.make ~name:"create sorts heaviest first, ties in seed order" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 300) (oneofl [ 0.0; 1.0; 2.0; 4.0; 8.0 ]))
    (fun weights ->
      QCheck.assume (List.exists (fun w -> w > 0.0) weights);
      let belief = Belief.create (List.mapi (fun i w -> (i, w, prepared, state)) weights) in
      let expected =
        List.map fst
          (List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) (List.mapi (fun i w -> (i, w)) weights))
      in
      List.map (fun (h : _ Belief.hypothesis) -> h.Belief.params) (support belief) = expected)

(* --- Priors --- *)

let grid_helpers () =
  Alcotest.(check (list (float 1e-9))) "float grid" [ 1.0; 1.5; 2.0 ]
    (Priors.grid_float ~lo:1.0 ~hi:2.0 ~step:0.5);
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
  let params = { Priors.paper_truth with Priors.initial_packets = 3 } in
  match Priors.seeds ~config:Forward.default_config [ (params, 1.0) ] with
  | [ (_, _, prepared, state) ] ->
    let station =
      match Compiled.station_ids (Forward.compiled_of prepared) with
      | [ id ] -> id
      | ids -> Alcotest.failf "expected one station, got %d" (List.length ids)
    in
    Alcotest.(check int) "three packets in the station" (3 * Packet.default_bits)
      (Mstate.station_bits state station)
  | seeds -> Alcotest.failf "expected one hypothesis, got %d" (List.length seeds)

(* The first decision epoch of a memoryless gate comes from the config
   the hypothesis is prepared under. *)
let hypotheses_read_config_epoch () =
  let config = { Forward.default_config with Forward.epoch = 2.5 } in
  match Priors.seeds ~config [ (Priors.paper_truth, 1.0) ] with
  | [ (_, _, _, state) ] ->
    let epochs =
      List.filter_map
        (fun (e : Mstate.event) ->
          match e.Mstate.ev with
          | Mstate.Gate_epoch _ -> Some e.Mstate.time
          | Mstate.Arrive _ | Mstate.Complete _ | Mstate.Pinger_emit _ | Mstate.Gate_toggle _ ->
            None)
        state.Mstate.pending
    in
    Alcotest.(check (list (float 0.0))) "first epoch at the config's" [ 2.5 ] epochs
  | seeds -> Alcotest.failf "expected one hypothesis, got %d" (List.length seeds)

let hypotheses_queue_needs_one_station () =
  let model stations =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.series
          (List.concat
             (List.init stations (fun _ ->
                  [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:12_000.0 ])));
    }
  in
  let build stations queued =
    ignore (Priors.hypotheses ~queued:(fun _ -> queued) model [ (stations, 1.0) ])
  in
  build 0 0;
  build 2 0;
  build 1 2;
  List.iter
    (fun stations ->
      match build stations 2 with
      | () -> Alcotest.failf "queued packets accepted with %d stations" stations
      | exception Invalid_argument _ -> ())
    [ 0; 2 ]

let suite =
  [
    ("logsumexp basics", `Quick, logsumexp_basics);
    ("entropy normalizes the log-weights", `Quick, entropy_normalizes);
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
    QCheck_alcotest.to_alcotest posterior_matches_marshal_prop;
    ("top-k cap", `Quick, top_k_cap);
    ("resample cap", `Quick, resample_cap);
    ("marginal and mean", `Quick, marginal_and_mean);
    ("support sorted", `Quick, support_is_sorted);
    ("grid helpers", `Quick, grid_helpers);
    ("paper prior shape", `Quick, paper_prior_shape);
    ("paper truth values", `Quick, paper_truth_values);
    ("fig2 hypothesis prefill", `Quick, fig2_hypothesis_prefill);
    ("hypotheses read the config's epoch", `Quick, hypotheses_read_config_epoch);
    ("hypotheses queue needs one station", `Quick, hypotheses_queue_needs_one_station);
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

(* --- Particle-filter diagnostics: ESS, support, the resampling cap --- *)

(* The effective sample size the [belief_update] journal event reports
   for the update [f] makes. *)
let journaled_ess f =
  let module Sink = Utc_obs.Sink in
  Sink.reset ();
  Sink.enable ();
  Fun.protect
    ~finally:(fun () ->
      Sink.disable ();
      Sink.reset ())
    (fun () ->
      ignore (f ());
      match List.rev (Sink.events ()) with
      | { Sink.event = Utc_obs.Event.Belief_update { ess; _ }; _ } :: _ -> ess
      | _ -> Alcotest.fail "no belief_update journaled")

let particle_ess_uniform () =
  let belief = Belief.create (small_family ()) in
  Alcotest.(check (float 1e-6)) "uniform ESS = n" 4.0
    (journaled_ess (fun () -> Belief.update belief ~sends:[] ~acks:[] ~now:0.0 ()));
  Alcotest.(check int) "support size" 4 (List.length (Belief.posterior belief))

let particle_ess_after_collapse () =
  let belief = Belief.create (small_family ()) in
  (* Posterior collapsed to one cell: ESS = size = 1. *)
  Alcotest.(check (float 1e-6)) "ESS 1" 1.0
    (journaled_ess (fun () ->
         Belief.update belief ~sends:[ send ~at:0.0 ~seq:0 ]
           ~acks:[ { Belief.seq = 0; time = 1.0 } ]
           ~now:1.0 ()))

let particle_create_bounded () =
  let seeds = List.init 40 (fun i -> seed_of { rate = 500.0 *. float_of_int (i + 1); fill = 0 } 1.0) in
  let belief =
    Belief.create ~max_hyps:8 ~cap_policy:(`Resample (Utc_sim.Rng.create ~seed:3)) seeds
  in
  let belief = Belief.advance belief ~sends:[] ~now:0.5 () in
  Alcotest.(check bool) "bounded by particle count" true (Belief.size belief <= 8)

let particle_suite =
  [
    ("particle ess uniform", `Quick, particle_ess_uniform);
    ("particle ess after collapse", `Quick, particle_ess_after_collapse);
    ("particle create bounded", `Quick, particle_create_bounded);
  ]

let suite = suite @ particle_suite

(* --- Reseed, likelihood floor --- *)

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
  Alcotest.(check (list (float 1e-9))) "anchored at now" [ 10.0; 10.0 ]
    (List.map (fun (h : _ Belief.hypothesis) -> h.Belief.state.Mstate.now) (support belief));
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

(* A [min_weight] outside [0, 1] or a [max_hyps] below 1 would prune or
   cap every hypothesis away at the first update, which would then
   report [All_rejected] and blame the model. *)
let create_rejects ?min_weight ?max_hyps message () =
  Alcotest.check_raises "rejected" (Invalid_argument message) (fun () ->
      ignore (Belief.create ?min_weight ?max_hyps [ seed_of { rate = 12_000.0; fill = 0 } 1.0 ]))

let min_weight_message = "Belief.create: min_weight must be in [0, 1]"

(* 0 disables pruning and 1 keeps only the heaviest: both are legal. *)
let create_accepts_min_weight_bounds () =
  List.iter
    (fun min_weight ->
      let belief = Belief.create ~min_weight (small_family ()) in
      Alcotest.(check int) "all four cells" 4 (Belief.size belief))
    [ 0.0; 1.0 ]

(* A reseeded model keeps its pinger and periodic gate on the anchored
   clock. Stepping the §4 truth model, reseeded at [t0], one pending
   instant at a time: no event comes before the one processed last, the
   pinger emits at t0, t0 + 1/r, ... and the squarewave toggles at
   t0 + 100 s and t0 + 200 s. *)
let reseed_anchors_clocks () =
  let compiled = Compiled.compile_exn Priors.paper_truth_topology in
  let prepared = Forward.prepare Forward.default_config compiled in
  let seed = ((), 1.0, prepared, Mstate.initial ~epoch:1.0 compiled) in
  let t0 = 50.0 in
  let belief = Belief.reseed (Belief.create [ seed ]) ~seeds:[ seed ] ~now:t0 () in
  check_hashes belief;
  let state =
    match support belief with
    | [ h ] -> h.Belief.state
    | _ -> Alcotest.fail "expected one hypothesis"
  in
  let rate =
    match compiled.Compiled.pingers with
    | [ p ] -> p.Compiled.rate_pps
    | _ -> Alcotest.fail "expected one pinger"
  in
  let interval = 100.0 in
  let emissions = ref 0 and toggles = ref 0 in
  let check (ev : Mstate.event) =
    match ev.Mstate.ev with
    | Mstate.Pinger_emit (_, k) ->
      Alcotest.(check (float 0.0)) "emission time" (t0 +. (float_of_int k /. rate)) ev.Mstate.time;
      incr emissions
    | Mstate.Gate_toggle (_, k) ->
      Alcotest.(check (float 0.0)) "toggle time" (t0 +. (float_of_int k *. interval)) ev.Mstate.time;
      incr toggles
    | Mstate.Arrive _ | Mstate.Complete _ | Mstate.Gate_epoch _ -> ()
  in
  (* Each run processes the pending events of one instant. *)
  let rec go (state : Mstate.t) last =
    match state.Mstate.pending with
    | ev :: _ when ev.Mstate.time <= 260.0 -> (
      let now = ev.Mstate.time in
      if now < last then Alcotest.failf "an event at %g follows one at %g" now last;
      List.iter
        (fun (e : Mstate.event) -> if Float.equal e.Mstate.time now then check e)
        state.Mstate.pending;
      match Forward.run prepared state ~sends:[] ~until:now with
      | [ o ] -> go o.Forward.state now
      | _ -> Alcotest.fail "the truth model does not fork")
    | [] | _ :: _ -> ()
  in
  go state t0;
  Alcotest.(check int) "emissions" (1 + int_of_float ((260.0 -. t0) *. rate)) !emissions;
  Alcotest.(check int) "toggles" 2 !toggles

(* The one identity that shared runs change: two packets in flight that
   crossed different likelihood-mode losses are different packets, even
   when their survival probabilities are equal bit for bit, so
   compaction keeps their forks apart. A random multipath sends the
   packet through one of two losses of equal rate, then a common delay. *)
let trails_keep_forks_apart () =
  let topology =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.series
          [
            Topology.multipath ~policy:(`Random 0.5) ~first:(Topology.loss ~rate:0.1)
              ~second:(Topology.loss ~rate:0.1) ();
            Topology.delay ~seconds:1.0;
          ];
    }
  in
  let compiled = Compiled.compile_exn topology in
  let prepared = Forward.prepare Forward.default_config compiled in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let sends = [ send ~at:0.0 ~seq:0 ] in
  let in_flight (o : Forward.outcome) =
    match o.Forward.state.Mstate.pending with
    | [ { Mstate.ev = Mstate.Arrive (_, m); _ } ] -> m
    | _ -> Alcotest.fail "expected one packet in flight"
  in
  (match Forward.run prepared state ~sends ~until:0.5 with
  | [ a; b ] ->
    let ma = in_flight a and mb = in_flight b in
    let survival (m : Mstate.mpkt) =
      Forward.survive_p prepared { Forward.time = 1.0; packet = m.Mstate.pkt; trail = m.Mstate.trail }
    in
    Alcotest.(check bool) "different losses" false (List.equal Int.equal ma.Mstate.trail mb.Mstate.trail);
    Alcotest.(check bool) "equal survival bits" true
      (Int64.equal (Int64.bits_of_float (survival ma)) (Int64.bits_of_float (survival mb)));
    Alcotest.(check bool) "states differ" false (Mstate.equal a.Forward.state b.Forward.state)
  | outcomes -> Alcotest.failf "expected two forks, got %d" (List.length outcomes));
  let belief = Belief.advance (Belief.create [ ((), 1.0, prepared, state) ]) ~sends ~now:0.5 () in
  Alcotest.(check int) "forks kept apart" 2 (Belief.size belief)

(* Hypotheses that differ only in a last-mile loss rate share one run,
   but each is weighed by its own rate: one ACK and one missing ACK
   leave posterior mass proportional to (1 - p) p, as when each rate
   is the only hypothesis, and as the forking interpreter has it. *)
let loss_rate_twins_keep_their_likelihoods () =
  let lossy rate =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.series
          [ Topology.throughput ~rate_bps:12_000.0; Topology.loss ~rate ];
    }
  in
  let rates = [ 0.1; 0.5; 0.2 ] in
  let posterior config =
    let seeds =
      List.map
        (fun rate ->
          let compiled = Compiled.compile_exn (lossy rate) in
          (rate, 1.0, Forward.prepare config compiled, Mstate.initial ~epoch:1.0 compiled))
        rates
    in
    let belief, status =
      Belief.update (Belief.create seeds)
        ~sends:[ send ~at:0.0 ~seq:0; send ~at:1.0 ~seq:1 ]
        ~acks:[ { Belief.seq = 1; time = 2.0 } ]
        ~now:3.0 ()
    in
    Alcotest.(check bool) "consistent" true (status = Belief.Consistent);
    List.sort (fun (a, _) (b, _) -> Float.compare a b) (Belief.posterior belief)
  in
  let total = List.fold_left (fun acc p -> acc +. ((1.0 -. p) *. p)) 0.0 rates in
  let expected =
    List.sort (fun (a, _) (b, _) -> Float.compare a b)
      (List.map (fun p -> (p, (1.0 -. p) *. p /. total)) rates)
  in
  let check_posterior name got =
    List.iter2
      (fun (ra, wa) (rb, wb) ->
        Alcotest.(check (float 0.0)) (name ^ " rate") ra rb;
        Alcotest.(check (float 1e-9)) (name ^ " mass") wa wb)
      expected got
  in
  check_posterior "likelihood" (posterior Forward.default_config);
  check_posterior "fork" (posterior { Forward.default_config with loss_mode = `Fork })

let robustness_suite =
  [
    ("reseed replaces and anchors", `Quick, reseed_replaces_and_anchors);
    ("reseed keep splits mass", `Quick, reseed_keep_splits_mass);
    ("reseed raises", `Quick, reseed_raises);
    ("create rejects min_weight above 1", `Quick, create_rejects ~min_weight:2.0 min_weight_message);
    ("create rejects NaN min_weight", `Quick, create_rejects ~min_weight:Float.nan min_weight_message);
    ("create rejects negative min_weight", `Quick, create_rejects ~min_weight:(-1e-3) min_weight_message);
    ( "create rejects max_hyps 0",
      `Quick,
      create_rejects ~max_hyps:0 "Belief.create: max_hyps must be at least 1" );
    ("create accepts min_weight 0 and 1", `Quick, create_accepts_min_weight_bounds);
    ("reseed anchors pinger and gate clocks", `Quick, reseed_anchors_clocks);
    ("trails keep forks apart", `Quick, trails_keep_forks_apart);
    ("loss-rate twins keep their likelihoods", `Quick, loss_rate_twins_keep_their_likelihoods);
  ]

let suite = suite @ robustness_suite

(* A resampled cap keeps its draw in position order, so compaction must
   sort it: with these weights a lighter hypothesis can draw more copies
   than a heavier one, as it does at some of these resampling seeds. *)
let resample_cap_sorted () =
  let weights = [ 0.3; 0.29; 0.2; 0.11; 0.09; 0.01 ] in
  let seeds =
    List.mapi (fun i w -> seed_of { rate = 1_000.0 *. float_of_int (i + 1); fill = 0 } w) weights
  in
  for seed = 1 to 20 do
    let belief =
      Belief.create ~max_hyps:5 ~cap_policy:(`Resample (Utc_sim.Rng.create ~seed)) seeds
    in
    let kept = support (Belief.advance belief ~sends:[] ~now:0.5 ()) in
    let logw = List.map (fun h -> h.Belief.logw) kept in
    if List.stable_sort (fun a b -> Float.compare b a) logw <> logw then
      Alcotest.failf "seed %d: resampled support not heaviest first" seed
  done

let suite =
  suite
  @ [
      ("step forces no minor collection", `Quick, step_forces_no_minor_collection);
      QCheck_alcotest.to_alcotest create_sort_prop;
      ("compaction sorts a resampled cap", `Quick, resample_cap_sorted);
    ]
