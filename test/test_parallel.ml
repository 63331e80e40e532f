(* The domain pool fans whole runs only: a harness sweep must be
   bit-identical to serial for every pool size, and the pool must really
   run items concurrently. The serial baseline is always an explicit
   1-domain pool so the suite proves the same thing under UTC_DOMAINS=4. *)
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
module Obs_clock = Utc_obs.Obs_clock

let pool_sizes = [ 1; 2; 4 ]

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

(* Every equivalence test passes on a pool that silently runs serial;
   this one needs both items of a two-item map in flight at once. The
   deadline only keeps a serial pool from hanging the suite. *)
let pool_runs_items_concurrently () =
  Pool.with_pool ~domains:2 (fun pool ->
      let arrived = Atomic.make 0 in
      let deadline = Obs_clock.now () +. 5.0 in
      let meet () =
        Atomic.incr arrived;
        while Atomic.get arrived < 2 && Obs_clock.now () < deadline do
          ()
        done;
        Atomic.get arrived
      in
      Alcotest.(check (list int)) "each item saw the other arrive" [ 2; 2 ]
        (Pool.map_list pool ~f:meet [ (); () ]))

let default_pool_capped () =
  Fun.protect
    ~finally:(fun () -> Pool.set_default_domains 1)
    (fun () ->
      Pool.set_default_domains (Pool.recommended () + 2);
      Alcotest.(check int) "default pool capped at the recommended count" (Pool.recommended ())
        (Pool.default_domains ()))

(* --- planner gross-utility cache --- *)

let planner_config =
  { Planner.default_config with Planner.delays = [ 0.0; 0.4; 1.2; 2.4 ]; horizon = 5.0 }

(* A single-queue family: its planning runs never fork. *)
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
  let belief = Belief.advance (Belief.create family) ~sends:[] ~now:0.5 () in
  let make_packet at = Packet.make ~flow:Flow.Primary ~seq:0 ~sent_at:at () in
  fun ?cache () -> Planner.decide ?cache planner_config ~belief ~now:0.5 ~pending:[] ~make_packet

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
    ("golden harness sweep", `Slow, golden_harness_sweep);
    ("pool basics", `Quick, pool_basics);
    ("pool exception propagation", `Quick, pool_exception_propagation);
    ("pool runs items concurrently", `Quick, pool_runs_items_concurrently);
    ("default pool capped at recommended", `Quick, default_pool_capped);
    ("planner cache identity", `Quick, planner_cache_identity);
    ("planner single-branch skips cache", `Quick, planner_single_branch_skips_cache);
    ("rng stream determinism", `Quick, rng_stream_determinism);
    ("rng streams pool-invariant", `Quick, rng_streams_pool_invariant);
    QCheck_alcotest.to_alcotest map_list_prop;
  ]
