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
    List.map strip (Harness.run_many ~pool:(Pool.create ~domains ()) configs)
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
  let pool = Pool.create ~domains:3 () in
  Alcotest.(check int) "domains" 3 (Pool.domains pool);
  Alcotest.(check (list int)) "empty list" [] (Pool.map_list pool ~f:succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Pool.map_list pool ~f:succ [ 1 ]);
  Alcotest.(check (list int)) "uneven chunks"
    (List.init 13 (fun i -> i * i))
    (Pool.map_list pool ~f:(fun i -> i * i) (List.init 13 Fun.id));
  (* A job may itself map on the same pool. *)
  let nested =
    Pool.map_list pool
      ~f:(fun i -> List.fold_left ( + ) 0 (Pool.map_list pool ~f:succ (List.init i Fun.id)))
      (List.init 6 Fun.id)
  in
  Alcotest.(check (list int)) "nested maps"
    (List.init 6 (fun i -> List.fold_left ( + ) 0 (List.init i succ)))
    nested;
  Alcotest.check_raises "domains must be positive" (Invalid_argument "Pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0 ()))

let pool_exception_propagation () =
  (* Ten items on four domains are the chunks 0-2, 3-5, 6-8 (spawned)
     and 9 (the caller's). Whichever chunks fail, the lowest-indexed
     failing item's exception wins, as in the serial map. *)
  let pool = Pool.create ~domains:4 () in
  List.iter
    (fun first ->
      let expected = Printf.sprintf "item %d" first in
      Alcotest.check_raises ("lowest failure reported: " ^ expected) (Failure expected) (fun () ->
          ignore
            (Pool.map_list pool
               ~f:(fun i -> if i >= first then failwith (Printf.sprintf "item %d" i) else i)
               (List.init 10 Fun.id))))
    [ 2; 4; 9 ];
  (* The failure in chunk 0 surfaces only after the slow item 8, in a
     later spawned chunk, has finished: every spawned domain is joined. *)
  let finished = Atomic.make false in
  let f i =
    if i = 0 then failwith "item 0";
    if i = 8 then begin
      let until = Obs_clock.now () +. 0.05 in
      while Obs_clock.now () < until do
        ()
      done;
      Atomic.set finished true
    end
  in
  Alcotest.check_raises "early failure" (Failure "item 0") (fun () ->
      ignore (Pool.map_list pool ~f (List.init 10 Fun.id)));
  Alcotest.(check bool) "the slow later chunk was joined first" true (Atomic.get finished);
  Alcotest.(check (list int)) "pool still works after a failure"
    (List.init 10 succ)
    (Pool.map_list pool ~f:succ (List.init 10 Fun.id))

(* Every equivalence test passes on a pool that silently runs serial;
   this one needs both items of a two-item map in flight at once. The
   deadline only keeps a serial pool from hanging the suite. *)
let pool_runs_items_concurrently () =
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
    (Pool.map_list (Pool.create ~domains:2 ()) ~f:meet [ (); () ])

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
  QCheck.Test.make ~name:"map_list equals List.map for any domains" ~count:30
    QCheck.(pair (list small_int) (int_range 1 4))
    (fun (xs, domains) ->
      let f x = (x * 7919) lxor (x lsl 3) in
      Pool.map_list (Pool.create ~domains ()) ~f xs = List.map f xs)

let suite =
  [
    ("golden harness sweep", `Slow, golden_harness_sweep);
    ("pool basics", `Quick, pool_basics);
    ("pool exception propagation", `Quick, pool_exception_propagation);
    ("pool runs items concurrently", `Quick, pool_runs_items_concurrently);
    ("default pool capped at recommended", `Quick, default_pool_capped);
    ("planner cache identity", `Quick, planner_cache_identity);
    ("planner single-branch skips cache", `Quick, planner_single_branch_skips_cache);
    QCheck_alcotest.to_alcotest map_list_prop;
  ]
