(* Golden-trace equivalence for the domain pool: belief updates, planner
   decisions and harness sweeps must be bit-identical to serial for every
   pool size. The serial baseline is always an explicit 1-domain pool so
   the suite proves the same thing under UTC_DOMAINS=4. *)
open Utc_net
module Pool = Utc_parallel.Pool
module Belief = Utc_inference.Belief
module Priors = Utc_inference.Priors
module Forward = Utc_model.Forward
module Mstate = Utc_model.Mstate
module Planner = Utc_core.Planner
module Harness = Utc_experiments.Harness
module Scalability = Utc_experiments.Scalability
module Rng = Utc_sim.Rng

let pool_sizes = [ 1; 2; 4 ]

(* --- fingerprints: every bit that matters, nothing that doesn't --- *)

let hyp_fingerprint (h : _ Belief.hypothesis) =
  (h.Belief.params, Int64.bits_of_float h.Belief.logw, Mstate.canonical h.Belief.state)

let belief_fingerprint belief = List.map hyp_fingerprint (Belief.support belief)

let check_belief_equal name serial pooled =
  let (sb, ss) = serial and (pb, ps) = pooled in
  Alcotest.(check bool) (name ^ ": same update status") true (ss = ps);
  Alcotest.(check bool) (name ^ ": bit-identical posterior") true
    (belief_fingerprint sb = belief_fingerprint pb)

(* --- the agreement topologies as belief scenarios ---

   Each golden scenario takes one of test_agreement's topologies, builds a
   3-hypothesis belief over it (the topology itself plus two extra-delay
   variants), and conditions on the ACKs the undelayed variant actually
   produces. The posterior then exercises removal, renormalization and
   compaction; its fingerprint must not move with the pool size. *)

let primary_sends times =
  List.map (fun (at, seq) -> (at, Packet.make ~flow:Flow.Primary ~seq ~sent_at:at ())) times

let variant_seeds topology =
  List.map
    (fun extra_delay ->
      let t =
        if extra_delay = 0.0 then topology
        else
          {
            topology with
            Topology.shared =
              Topology.series [ Topology.delay ~seconds:extra_delay; topology.Topology.shared ];
          }
      in
      let compiled = Compiled.compile_exn t in
      ( extra_delay,
        1.0,
        Forward.prepare Forward.default_config compiled,
        Mstate.initial ~epoch:Forward.default_config.Forward.epoch compiled ))
    [ 0.0; 0.25; 0.5 ]

(* ACKs as observed under the undelayed topology: its primary deliveries. *)
let acks_of topology ~sends ~until =
  let compiled = Compiled.compile_exn topology in
  let prepared = Forward.prepare Forward.default_config compiled in
  let state = Mstate.initial ~epoch:Forward.default_config.Forward.epoch compiled in
  match Forward.run prepared state ~sends ~until with
  | [ outcome ] ->
    List.filter_map
      (fun (d : Forward.delivery) ->
        if d.Forward.packet.Packet.flow = Flow.Primary then
          Some { Belief.seq = d.Forward.packet.Packet.seq; time = d.Forward.time }
        else None)
      outcome.Forward.deliveries
  | outcomes -> Alcotest.failf "expected a deterministic topology, got %d outcomes" (List.length outcomes)

let golden_topologies =
  [
    ( "figure2 squarewave",
      Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.0 ~pinger_pps:0.7
        ~cross_gate:(Topology.squarewave ~interval:100.0 ()),
      [ (0.5, 0); (3.0, 1); (3.1, 2); (5.0, 3) ],
      12.0 );
    ( "tie at pinger emission",
      Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.0 ~pinger_pps:0.5
        ~cross_gate:(Topology.series []),
      [ (2.0, 0); (4.0, 1); (6.0, 2) ],
      15.0 );
    ( "multi-station chain",
      {
        Topology.sources = [ Topology.endpoint Flow.Primary ];
        shared =
          Topology.series
            [
              Topology.buffer ~capacity_bits:48_000;
              Topology.throughput ~rate_bps:24_000.0;
              Topology.delay ~seconds:0.05;
              Topology.buffer ~capacity_bits:24_000;
              Topology.throughput ~rate_bps:12_000.0;
            ];
      },
      List.init 8 (fun i -> (0.2 *. float_of_int i, i)),
      20.0 );
    ( "diverter paths",
      {
        Topology.sources =
          [ Topology.endpoint Flow.Primary; Topology.pinger ~flow:Flow.Cross ~rate_pps:0.4 () ];
        shared =
          Topology.Diverter
            {
              routes = [ (Flow.Cross, Topology.delay ~seconds:0.7) ];
              otherwise =
                Topology.series
                  [ Topology.buffer ~capacity_bits:60_000; Topology.throughput ~rate_bps:12_000.0 ];
            };
      },
      [ (0.3, 0); (1.1, 1); (1.2, 2) ],
      10.0 );
    ( "buffer overflow",
      {
        Topology.sources = [ Topology.endpoint Flow.Primary ];
        shared =
          Topology.series
            [ Topology.buffer ~capacity_bits:24_000; Topology.throughput ~rate_bps:12_000.0 ];
      },
      List.init 10 (fun i -> (0.05 *. float_of_int i, i)),
      15.0 );
  ]

let run_update ~domains belief ~sends ~acks ~now =
  Pool.with_pool ~domains (fun pool -> Belief.update ~pool belief ~sends ~acks ~now ())

let golden_topology_updates () =
  List.iter
    (fun (name, topology, times, now) ->
      let sends = primary_sends times in
      let acks = acks_of topology ~sends ~until:now in
      let serial = run_update ~domains:1 (Belief.create (variant_seeds topology)) ~sends ~acks ~now in
      List.iter
        (fun domains ->
          let pooled =
            run_update ~domains (Belief.create (variant_seeds topology)) ~sends ~acks ~now
          in
          check_belief_equal (Printf.sprintf "%s @ %d domains" name domains) serial pooled)
        pool_sizes)
    golden_topologies

(* --- the fig2 composition over (a thinning of) the paper prior --- *)

let fig2_seeds () =
  Priors.seeds ~config:Forward.default_config (Scalability.thin 32 (Priors.paper_prior ()))

let fig2_sends = primary_sends [ (0.5, 0); (2.0, 1); (3.5, 2) ]
let fig2_acks = [ { Belief.seq = 0; time = 1.5 }; { Belief.seq = 1; time = 3.0 } ]

let golden_fig2_update () =
  let run ~domains =
    run_update ~domains (Belief.create (fig2_seeds ())) ~sends:fig2_sends ~acks:fig2_acks ~now:5.0
  in
  let serial = run ~domains:1 in
  Alcotest.(check bool) "the window conditioned something" true (Belief.size (fst serial) > 0);
  List.iter
    (fun domains ->
      check_belief_equal (Printf.sprintf "fig2 prior @ %d domains" domains) serial (run ~domains))
    pool_sizes

(* --- reseed decisions survive the pool --- *)

type params = { rate : float; fill : int }

let seed_of p weight =
  let topology =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.series
          [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:p.rate ];
    }
  in
  let compiled = Compiled.compile_exn topology in
  let prefill =
    if p.fill = 0 then []
    else
      [
        ( List.hd (Compiled.station_ids compiled),
          List.init p.fill (fun i -> Packet.make ~flow:Flow.Cross ~seq:(-1 - i) ~sent_at:0.0 ()) );
      ]
  in
  ( p,
    weight,
    Forward.prepare Forward.default_config compiled,
    Mstate.initial ~prefill ~epoch:1.0 compiled )

let small_family () =
  List.map
    (fun p -> seed_of p 1.0)
    [
      { rate = 6_000.0; fill = 0 };
      { rate = 12_000.0; fill = 0 };
      { rate = 12_000.0; fill = 2 };
      { rate = 24_000.0; fill = 0 };
    ]

let golden_reseed_cycle () =
  (* Collapse, reseed, condition again — the whole cycle under each pool
     size must match the serial trace, including which fresh hypothesis
     wins. *)
  let cycle ~domains =
    Pool.with_pool ~domains (fun pool ->
        let belief = Belief.create (small_family ()) in
        let belief, s1 =
          Belief.update ~pool belief
            ~sends:(primary_sends [ (0.0, 0) ])
            ~acks:[ { Belief.seq = 0; time = 1.0 } ]
            ~now:1.0 ()
        in
        let belief = Belief.advance ~pool belief ~sends:[] ~now:10.0 () in
        let fresh = [ seed_of { rate = 6_000.0; fill = 0 } 1.0; seed_of { rate = 24_000.0; fill = 0 } 3.0 ] in
        let belief = Belief.reseed belief ~seeds:fresh ~now:10.0 () in
        let belief, s2 =
          Belief.update ~pool belief
            ~sends:(primary_sends [ (10.0, 1) ])
            ~acks:[ { Belief.seq = 1; time = 10.5 } ]
            ~now:10.5 ()
        in
        (belief_fingerprint belief, s1, s2))
  in
  let serial = cycle ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "reseed cycle @ %d domains" domains)
        true
        (cycle ~domains = serial))
    pool_sizes

(* --- planner decisions --- *)

let planner_config =
  {
    Planner.default_config with
    Planner.delays = [ 0.0; 0.4; 1.2; 2.4 ];
    horizon = 5.0;
    top_hyps = 12;
  }

let golden_planner_decisions () =
  let decide ~domains =
    Pool.with_pool ~domains (fun pool ->
        let belief =
          Belief.create
            (Priors.seeds ~config:Forward.default_config (Scalability.thin 64 (Priors.paper_prior ())))
        in
        let belief = Belief.advance ~pool belief ~sends:[] ~now:0.5 () in
        Planner.decide ~pool planner_config ~belief ~now:0.5 ~pending:[]
          ~make_packet:(fun at -> Packet.make ~flow:Flow.Primary ~seq:0 ~sent_at:at ()))
  in
  let serial = decide ~domains:1 in
  Alcotest.(check bool) "planner produced evaluations" true (snd serial <> []);
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "planner decision @ %d domains" domains)
        true
        (decide ~domains = serial))
    pool_sizes

(* --- harness sweeps --- *)

let strip (r : Harness.result) = { r with Harness.wall_seconds = 0.0 }

let golden_harness_sweep () =
  let configs =
    let prior = Scalability.thin 64 (Priors.paper_prior ()) in
    List.map (fun alpha -> { Harness.default with Harness.seed = 11; duration = 12.0; alpha; prior })
      [ 1.0; 2.5 ]
  in
  let run ~domains =
    Pool.with_pool ~domains (fun pool -> List.map strip (Harness.run_many ~pool configs))
  in
  let serial = run ~domains:1 in
  Alcotest.(check bool) "runs sent something" true
    (List.for_all (fun r -> r.Harness.sent_count > 0) serial);
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "harness sweep @ %d domains" domains)
        true
        (run ~domains = serial))
    pool_sizes

(* --- pool mechanics --- *)

let pool_basics () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "domains" 3 (Pool.domains pool);
      Alcotest.(check (list int)) "empty list" [] (Pool.map_list pool ~f:succ []);
      Alcotest.(check (list int)) "singleton" [ 2 ] (Pool.map_list pool ~f:succ [ 1 ]);
      let arr = Array.init 13 (fun i -> i) in
      Alcotest.(check (array int)) "map_array" (Array.map (fun i -> i * i) arr)
        (Pool.map_array ~chunk:2 pool ~f:(fun i -> i * i) arr);
      (* Nested maps on the same pool must not deadlock. *)
      let nested =
        Pool.map_list pool
          ~f:(fun i -> List.fold_left ( + ) 0 (Pool.map_list pool ~f:succ (List.init i Fun.id)))
          (List.init 6 Fun.id)
      in
      Alcotest.(check (list int)) "nested maps"
        (List.init 6 (fun i -> List.fold_left ( + ) 0 (List.init i succ)))
        nested);
  Alcotest.check_raises "domains must be positive" (Invalid_argument "Pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0 ()))

let pool_exception_propagation () =
  (* The lowest-indexed failing chunk's exception wins, deterministically,
     and the pool survives to run more work. *)
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "lowest failure reported" (Failure "item 2") (fun () ->
          ignore
            (Pool.map_list ~chunk:1 pool
               ~f:(fun i -> if i >= 2 then failwith (Printf.sprintf "item %d" i) else i)
               (List.init 10 Fun.id)));
      Alcotest.(check (list int)) "pool still works after a failure"
        (List.init 10 succ)
        (Pool.map_list pool ~f:succ (List.init 10 Fun.id)))

(* --- adaptive cost model --- *)

let cost_model_threshold () =
  (* The decision inequality at its exact boundary: with eff = 2 the
     saving is half the estimate, so per_item = 1000 ns over 4 items
     saves exactly the 2.0 * 1000 * 1 threshold — and a tie must stay
     serial (misprediction toward parallel is the expensive direction). *)
  let overhead_ns = 1000.0 in
  Alcotest.(check bool) "exactly at threshold stays serial" false
    (Pool.would_engage ~eff:2 ~overhead_ns ~per_item_ns:1000.0 ~items:4 ~chunks:1);
  Alcotest.(check bool) "just above threshold engages" true
    (Pool.would_engage ~eff:2 ~overhead_ns ~per_item_ns:1001.0 ~items:4 ~chunks:1);
  Alcotest.(check bool) "just below threshold stays serial" false
    (Pool.would_engage ~eff:2 ~overhead_ns ~per_item_ns:999.0 ~items:4 ~chunks:1);
  (* More chunks raise the bar: the same work split finer pays more
     dispatch overhead. *)
  Alcotest.(check bool) "same work, more chunks, stays serial" false
    (Pool.would_engage ~eff:2 ~overhead_ns ~per_item_ns:1001.0 ~items:4 ~chunks:2);
  (* Degenerate inputs can never engage. *)
  Alcotest.(check bool) "cold estimate never engages" false
    (Pool.would_engage ~eff:8 ~overhead_ns ~per_item_ns:Float.nan ~items:1000 ~chunks:4);
  Alcotest.(check bool) "unknown overhead never engages" false
    (Pool.would_engage ~eff:8 ~overhead_ns:Float.nan ~per_item_ns:1e9 ~items:1000 ~chunks:4);
  Alcotest.(check bool) "single effective domain never engages" false
    (Pool.would_engage ~eff:1 ~overhead_ns ~per_item_ns:1e9 ~items:1000 ~chunks:4);
  Alcotest.(check bool) "single item never engages" false
    (Pool.would_engage ~eff:4 ~overhead_ns ~per_item_ns:1e9 ~items:1 ~chunks:1)

let adaptive_decision_ladder () =
  (* Whatever branch the cost model picks — cold learning pass, primed
     fallback, primed engagement (where the machine has parallelism) —
     the result is the plain map, and the recorded decision matches the
     branch. *)
  let xs = List.init 57 Fun.id in
  let f x = (x * 2654435761) lxor (x lsr 4) in
  let expected = List.map f xs in
  let cost = Pool.Cost.make ~label:"test.adaptive" in
  Pool.with_pool ~policy:Pool.Adaptive ~domains:4 (fun pool ->
      Alcotest.(check bool) "policy" true (Pool.policy pool = Pool.Adaptive);
      Pool.Cost.forget cost;
      Alcotest.(check (list int)) "cold pass" expected (Pool.map_list ~cost pool ~f xs);
      Alcotest.(check bool) "cold pass learned a cost" false
        (Float.is_nan (Pool.Cost.per_item_ns cost));
      Pool.Cost.prime cost ~per_item_ns:1.0;
      Alcotest.(check (list int)) "cheap pass" expected (Pool.map_list ~chunk:8 ~cost pool ~f xs);
      (match Pool.Cost.last_decision cost with
      | Some d -> Alcotest.(check bool) "cheap work falls back" false d.Pool.Cost.engaged
      | None -> Alcotest.fail "no decision recorded for the cheap pass");
      Pool.Cost.prime cost ~per_item_ns:1e9;
      Alcotest.(check (list int)) "expensive pass" expected
        (Pool.map_list ~chunk:8 ~cost pool ~f xs);
      match Pool.Cost.last_decision cost with
      | Some d ->
        Alcotest.(check bool) "engages exactly when the machine has parallelism"
          (Pool.effective_domains pool > 1)
          d.Pool.Cost.engaged
      | None -> Alcotest.fail "no decision recorded for the expensive pass")

(* The shipped cost handles, primed to force each branch: the adaptive
   path must reproduce the serial fingerprints bit for bit whether it
   falls back or engages. *)
let adaptive_golden_identity () =
  let serial_belief =
    run_update ~domains:1 (Belief.create (fig2_seeds ())) ~sends:fig2_sends ~acks:fig2_acks
      ~now:5.0
  in
  let make_packet at = Packet.make ~flow:Flow.Primary ~seq:0 ~sent_at:at () in
  let decide pool =
    let belief = Belief.create (small_family ()) in
    let belief = Belief.advance ~pool belief ~sends:[] ~now:0.5 () in
    Planner.decide ~pool planner_config ~belief ~now:0.5 ~pending:[] ~make_packet
  in
  let sweep_configs =
    let prior = Scalability.thin 64 (Priors.paper_prior ()) in
    List.map
      (fun alpha -> { Harness.default with Harness.seed = 5; duration = 8.0; alpha; prior })
      [ 1.0; 2.5 ]
  in
  let sweep pool = List.map strip (Harness.run_many ~pool sweep_configs) in
  let serial_planner = Pool.with_pool ~domains:1 decide in
  let serial_sweep = Pool.with_pool ~domains:1 sweep in
  let handles = [ Belief.expand_cost; Planner.price_cost; Harness.run_cost ] in
  List.iter
    (fun (branch, per_item_ns) ->
      List.iter (fun c -> Pool.Cost.prime c ~per_item_ns) handles;
      Pool.with_pool ~policy:Pool.Adaptive ~domains:4 (fun pool ->
          check_belief_equal
            (Printf.sprintf "fig2 update, adaptive %s" branch)
            serial_belief
            (Belief.update ~pool
               (Belief.create (fig2_seeds ()))
               ~sends:fig2_sends ~acks:fig2_acks ~now:5.0 ());
          Alcotest.(check bool)
            (Printf.sprintf "planner decision, adaptive %s" branch)
            true
            (decide pool = serial_planner);
          Alcotest.(check bool)
            (Printf.sprintf "harness sweep, adaptive %s" branch)
            true
            (sweep pool = serial_sweep)))
    [ ("fallback", 1.0); ("engaged", 1e9) ];
  (* Leave the shipped handles cold for whatever runs next. *)
  List.iter Pool.Cost.forget handles

(* --- planner gross-utility cache --- *)

(* A family whose planning runs fork: cross traffic crosses a loss in
   front of the queue, so every baseline splits at the next emission and
   the planner prices these hypotheses with full runs and the cache. *)
let forking_family () =
  List.map
    (fun rate ->
      let topology =
        {
          Topology.sources =
            [ Topology.endpoint Flow.Primary; Topology.pinger ~flow:Flow.Cross ~rate_pps:0.5 () ];
          shared =
            Topology.series
              [
                Topology.loss ~rate:0.1;
                Topology.buffer ~capacity_bits:96_000;
                Topology.throughput ~rate_bps:rate;
              ];
        }
      in
      let compiled = Compiled.compile_exn topology in
      (rate, 1.0, Forward.prepare Forward.default_config compiled, Mstate.initial ~epoch:1.0 compiled))
    [ 6_000.0; 12_000.0; 24_000.0 ]

let cached_decide family =
  let belief =
    Pool.with_pool ~domains:1 (fun pool ->
        Belief.advance ~pool (Belief.create family) ~sends:[] ~now:0.5 ())
  in
  let make_packet at = Packet.make ~flow:Flow.Primary ~seq:0 ~sent_at:at () in
  fun ?cache () ->
    Pool.with_pool ~domains:1 (fun pool ->
        Planner.decide ~pool ?cache planner_config ~belief ~now:0.5 ~pending:[] ~make_packet)

let planner_cache_identity () =
  let decide = cached_decide (forking_family ()) in
  let reference = decide () in
  let cache = Planner.make_cache () in
  Alcotest.(check bool) "first cached decision matches uncached" true
    (decide ~cache () = reference);
  let hits_after_first, misses_after_first = Planner.cache_stats cache in
  Alcotest.(check int) "first decision is all misses" 0 hits_after_first;
  Alcotest.(check bool) "first decision probed a baseline per hypothesis" true
    (misses_after_first > 0);
  Alcotest.(check bool) "replayed decision matches uncached" true (decide ~cache () = reference);
  let hits, misses = Planner.cache_stats cache in
  (* Only baselines are ever looked up: the replay hits every baseline
     stored by the first decision and adds no new misses. *)
  Alcotest.(check int) "replay adds no misses" misses_after_first misses;
  Alcotest.(check int) "replay baselines all hit" misses_after_first hits;
  (* A capacity-1 cache thrashes but never lies. *)
  let tiny = Planner.make_cache ~capacity:1 () in
  Alcotest.(check bool) "capacity-bounded cache matches uncached" true
    (decide ~cache:tiny () = reference)

(* Hypotheses whose planning runs do not fork are priced off a traced
   baseline and never touch the cache. *)
let planner_single_branch_skips_cache () =
  let decide = cached_decide (small_family ()) in
  let reference = decide () in
  let cache = Planner.make_cache () in
  Alcotest.(check bool) "cached decision matches uncached" true (decide ~cache () = reference);
  Alcotest.(check (pair int int)) "no lookups" (0, 0) (Planner.cache_stats cache)

(* --- qcheck: the pool is List.map, bit for bit --- *)

let map_list_prop =
  QCheck.Test.make ~name:"map_list equals List.map for any domains and chunk" ~count:30
    QCheck.(triple (list small_int) (int_range 1 4) (int_range 1 7))
    (fun (xs, domains, chunk) ->
      let f x = (x * 7919) lxor (x lsl 3) in
      Pool.with_pool ~domains (fun pool -> Pool.map_list ~chunk pool ~f xs) = List.map f xs)

let random_belief_prop =
  (* Random windows over the small family: serial and pooled posteriors
     are structurally equal whatever the observations mean. *)
  QCheck.Test.make ~name:"random belief window is pool-size invariant" ~count:15
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 6) (float_bound_exclusive 3.0))
        bool (int_range 2 4))
    (fun (raw_times, ack_first, domains) ->
      let times =
        List.sort_uniq Float.compare
          (List.map (fun t -> Float.round (t *. 10.0) /. 10.0) raw_times)
      in
      let sends = primary_sends (List.mapi (fun i t -> (t, i)) times) in
      let acks =
        if ack_first then [ { Belief.seq = 0; time = List.hd times +. 1.0 } ] else []
      in
      let run ~domains =
        let belief, status =
          run_update ~domains (Belief.create (small_family ())) ~sends ~acks ~now:4.0
        in
        (belief_fingerprint belief, status)
      in
      run ~domains = run ~domains:1)

(* --- Rng split streams --- *)

let rng_stream_determinism () =
  let parent = Rng.create ~seed:42 in
  (* Pure: deriving does not advance the parent, so re-deriving the same
     index replays the same stream. *)
  let a = Rng.stream parent ~index:3 in
  let b = Rng.stream parent ~index:3 in
  Alcotest.(check bool) "same index, same stream" true
    (List.init 8 (fun _ -> Rng.bits64 a) = List.init 8 (fun _ -> Rng.bits64 b));
  (* Index-keyed: derivation order is irrelevant. *)
  let early_1 = Rng.bits64 (Rng.stream parent ~index:1) in
  let _ = Rng.stream parent ~index:9 in
  let late_1 = Rng.bits64 (Rng.stream parent ~index:1) in
  Alcotest.(check bool) "order of derivation is irrelevant" true (early_1 = late_1);
  (* Distinct indices give distinct streams. *)
  let first = List.init 16 (fun i -> Rng.bits64 (Rng.stream parent ~index:i)) in
  Alcotest.(check int) "16 distinct streams" 16
    (List.length (List.sort_uniq Int64.compare first));
  (* streams ~n is a prefix of streams ~n'. *)
  let draw rng = Rng.bits64 rng in
  let four = Array.map draw (Rng.streams parent ~n:4) in
  let eight = Array.map draw (Rng.streams parent ~n:8) in
  Alcotest.(check bool) "prefix property" true (four = Array.sub eight 0 4)

let rng_streams_pool_invariant () =
  (* Drawing from per-item streams through the pool replays the serial
     draws exactly: stream identity is the item index, never the domain. *)
  let parent = Rng.create ~seed:1234 in
  let indices = List.init 32 Fun.id in
  let draw i =
    let rng = Rng.stream parent ~index:i in
    List.init 4 (fun _ -> Rng.bits64 rng)
  in
  let serial = List.map draw indices in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "pooled draws @ %d domains" domains)
        true
        (Pool.with_pool ~domains (fun pool -> Pool.map_list ~chunk:3 pool ~f:draw indices)
        = serial))
    pool_sizes

let suite =
  [
    ("golden topology updates", `Quick, golden_topology_updates);
    ("golden fig2 prior update", `Quick, golden_fig2_update);
    ("golden reseed cycle", `Quick, golden_reseed_cycle);
    ("golden planner decisions", `Quick, golden_planner_decisions);
    ("golden harness sweep", `Slow, golden_harness_sweep);
    ("pool basics", `Quick, pool_basics);
    ("pool exception propagation", `Quick, pool_exception_propagation);
    ("cost model threshold boundary", `Quick, cost_model_threshold);
    ("adaptive decision ladder", `Quick, adaptive_decision_ladder);
    ("adaptive golden identity", `Slow, adaptive_golden_identity);
    ("planner cache identity", `Quick, planner_cache_identity);
    ("planner single-branch skips cache", `Quick, planner_single_branch_skips_cache);
    ("rng stream determinism", `Quick, rng_stream_determinism);
    ("rng streams pool-invariant", `Quick, rng_streams_pool_invariant);
    QCheck_alcotest.to_alcotest map_list_prop;
    QCheck_alcotest.to_alcotest random_belief_prop;
  ]
