(* Cross-validation and determinism tests for the mean-field fluid
   backend: the fluid aggregates must track packet-level truth within
   stated, asserted tolerances where both backends can run, and the
   integrator must be byte-deterministic at any pool size and exactly
   invariant to how the background population is chunked into classes. *)

open Utc_net
module Engine = Utc_sim.Engine
module Fluid = Utc_elements.Fluid
module Meanfield = Utc_experiments.Meanfield
module Metrics = Utc_obs.Metrics
module Sink = Utc_obs.Sink
module Export = Utc_obs.Export
module Pool = Utc_parallel.Pool

(* The stated tolerances the suite enforces (EXPERIMENTS.md quotes the
   measured agreement, well inside these):
   - steady-state aggregate goodput within 5% relative error;
   - steady-state queue occupancy within 25% of the total buffer
     capacity (relative error degenerates when queues sit near empty,
     so the bound is stated against capacity). *)
let goodput_tolerance = 0.05
let queue_tolerance = 0.25

let check_agreement (a : Meanfield.agreement) =
  if a.Meanfield.goodput_rel_err > goodput_tolerance then
    Alcotest.failf "%s N=%d: goodput rel err %.4f exceeds %.2f (fluid %.4g vs packet %.4g)"
      (Meanfield.topo_to_string a.Meanfield.a_topo)
      a.Meanfield.a_n a.Meanfield.goodput_rel_err goodput_tolerance a.Meanfield.fluid_goodput_bps
      a.Meanfield.packet_goodput_bps;
  if a.Meanfield.queue_frac_of_buffer > queue_tolerance then
    Alcotest.failf "%s N=%d: queue error %.4f of buffer exceeds %.2f (fluid %.4g vs packet %.4g)"
      (Meanfield.topo_to_string a.Meanfield.a_topo)
      a.Meanfield.a_n a.Meanfield.queue_frac_of_buffer queue_tolerance
      a.Meanfield.fluid_queue_bits a.Meanfield.packet_queue_bits

(* The full stated grid, pinned: every N the issue names, on both
   topologies. *)
let cross_validation_grid () =
  List.iter
    (fun topo ->
      List.iter
        (fun n -> check_agreement (Meanfield.validate ~seed:1 ~duration:120.0 ~topo ~n ()))
        [ 32; 64; 128; 256 ])
    [ Meanfield.Single; Meanfield.Parking_lot ]

(* And the same property over random seeds: agreement is not an artifact
   of one lucky packet-level trajectory. *)
let cross_validation_seeds =
  QCheck.Test.make ~name:"fluid matches packet truth across seeds" ~count:4
    QCheck.(pair (int_range 1 1000) bool)
    (fun (seed, parking) ->
      let topo = if parking then Meanfield.Parking_lot else Meanfield.Single in
      let a = Meanfield.validate ~seed ~duration:120.0 ~topo ~n:64 () in
      check_agreement a;
      true)

(* --- determinism: domains 1 vs 4 byte identity --- *)

let with_telemetry f =
  Metrics.enable ();
  Metrics.reset ();
  Sink.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ();
      Sink.disable ();
      Sink.reset ())
    f

let meanfield_run_outputs domains seed =
  Pool.set_default_domains domains;
  with_telemetry (fun () ->
      Sink.enable ();
      let config =
        { Meanfield.default_config with seed; duration = 30.0; background = 2_000 }
      in
      ignore (Meanfield.run ~config () : Meanfield.summary);
      let journal = Export.jsonl (Sink.events ()) in
      let metrics = Metrics.snapshot_json ~profile:false (Metrics.snapshot ~at:30.0) in
      (journal, metrics))

let domain_invariance =
  QCheck.Test.make ~name:"meanfield journal and metrics are pool-size invariant" ~count:2
    QCheck.(int_range 1 1000)
    (fun seed ->
      Fun.protect
        ~finally:(fun () -> Pool.set_default_domains 1)
        (fun () ->
          let serial_journal, serial_metrics = meanfield_run_outputs 1 seed in
          let pooled_journal, pooled_metrics = meanfield_run_outputs 4 seed in
          if not (String.equal serial_journal pooled_journal) then
            QCheck.Test.fail_reportf "journal differs between 1 and 4 domains (seed %d)" seed;
          if not (String.equal serial_metrics pooled_metrics) then
            QCheck.Test.fail_reportf "metrics differ between 1 and 4 domains (seed %d)" seed;
          String.length serial_journal > 0))

(* --- determinism: chunking invariance ---

   The per-class state is fixed point and every class-to-aggregate
   reduction is an exact integer sum, so any partition of the same
   homogeneous population into classes — and any order of the parts —
   must produce byte-identical aggregates and per-class windows. *)

let bottleneck n =
  {
    Topology.sources = [ Topology.endpoint Flow.Cross ];
    shared =
      Topology.series
        [
          Topology.buffer ~capacity_bits:(48_000 * n);
          Topology.throughput ~rate_bps:(12_000.0 *. float_of_int n);
        ];
  }

let fluid_fingerprint ~n ~partition =
  let engine = Engine.create ~seed:1 () in
  let compiled = Compiled.compile_exn (bottleneck n) in
  let background =
    {
      Fluid.pop_flow = Flow.Cross;
      pkt_bits = Packet.default_bits;
      pop_classes = List.map (fun flows -> { Fluid.flows; init_window_pkts = 1.0 }) partition;
    }
  in
  let fluid = Fluid.build engine compiled (Utc_elements.Runtime.callbacks ()) ~background in
  Engine.run ~until:20.0 engine;
  let agg = Fluid.sample fluid in
  let bits = Int64.bits_of_float in
  ( List.map
      (fun v -> bits v)
      [
        agg.Fluid.mean_window_pkts;
        agg.Fluid.offered_pps;
        agg.Fluid.goodput_bps;
        agg.Fluid.delivered_bits;
        agg.Fluid.loss_prob;
        agg.Fluid.rtt;
      ]
    @ List.map (fun (_, q) -> bits q) agg.Fluid.queue_bits,
    (* windows must be identical across all classes of a homogeneous
       population, so dedup: every partition should reduce to one raw
       fixed-point window value. *)
    List.sort_uniq Int.compare (List.map snd (Fluid.class_states fluid)) )

(* Random partition of n into 1..8 positive parts. *)
let partition_gen =
  QCheck.Gen.(
    int_range 8 5_000 >>= fun n ->
    int_range 1 8 >>= fun parts ->
    let rec split n parts acc =
      if parts = 1 then return (n :: acc)
      else
        int_range 1 (n - parts + 1) >>= fun take ->
        split (n - take) (parts - 1) (take :: acc)
    in
    split n parts [] >>= fun partition -> return (n, partition))

let chunking_invariance =
  QCheck.Test.make
    ~name:"integrator is invariant to background chunking and class order" ~count:20
    (QCheck.make partition_gen ~print:(fun (n, p) ->
         Printf.sprintf "n=%d partition=[%s]" n (String.concat ";" (List.map string_of_int p))))
    (fun (n, partition) ->
      let whole_agg, whole_windows = fluid_fingerprint ~n ~partition:[ n ] in
      let split_agg, split_windows = fluid_fingerprint ~n ~partition in
      let shuffled_agg, shuffled_windows = fluid_fingerprint ~n ~partition:(List.rev partition) in
      if not (List.equal Int64.equal whole_agg split_agg) then
        QCheck.Test.fail_reportf "aggregates differ: one class vs %d-way split"
          (List.length partition);
      if not (List.equal Int64.equal whole_agg shuffled_agg) then
        QCheck.Test.fail_reportf "aggregates differ under class-order permutation";
      if not (List.equal Int.equal whole_windows split_windows)
         || not (List.equal Int.equal whole_windows shuffled_windows)
      then QCheck.Test.fail_reportf "per-class fixed-point windows diverged across chunkings";
      List.length whole_windows = 1)

(* --- hybrid sanity at population scale --- *)

let hybrid_run_completes () =
  let config =
    { Meanfield.default_config with duration = 30.0; background = 100_000; foreground = 2 }
  in
  let s = Meanfield.run ~config () in
  Alcotest.(check int) "all ticks executed" 3_000 s.Meanfield.ticks;
  Alcotest.(check int) "two foreground rows" 2 (List.length s.Meanfield.fg_rows);
  List.iter
    (fun (r : Meanfield.fg_row) ->
      if r.Meanfield.fg_delivered <= 0 then
        Alcotest.failf "foreground %s starved through the fluid queue" r.Meanfield.fg_flow)
    s.Meanfield.fg_rows;
  if s.Meanfield.bg_goodput_bps <= 0.0 then Alcotest.fail "background goodput vanished";
  (* The scaled bottleneck is saturated at steady state: aggregate
     goodput within 5% of capacity. *)
  let capacity = 12_000.0 *. float_of_int (100_000 + 2) in
  let rel = Float.abs (s.Meanfield.bg_goodput_bps -. capacity) /. capacity in
  if rel > 0.05 then
    Alcotest.failf "steady-state goodput %.4g far from capacity %.4g" s.Meanfield.bg_goodput_bps
      capacity

let zero_background_runs_no_integrator () =
  let config = { Meanfield.default_config with duration = 20.0; background = 0; foreground = 2 } in
  let s = Meanfield.run ~config () in
  Alcotest.(check int) "no integrator ticks" 0 s.Meanfield.ticks;
  Alcotest.(check (float 1e-9)) "no background goodput" 0.0 s.Meanfield.bg_goodput_bps;
  List.iter
    (fun (r : Meanfield.fg_row) ->
      if r.Meanfield.fg_delivered <= 0 then
        Alcotest.failf "foreground %s should run as pure packet traffic" r.Meanfield.fg_flow)
    s.Meanfield.fg_rows

let suite =
  [
    Alcotest.test_case "cross-validation grid (N=32..256, both topologies)" `Slow
      cross_validation_grid;
    QCheck_alcotest.to_alcotest cross_validation_seeds;
    QCheck_alcotest.to_alcotest domain_invariance;
    QCheck_alcotest.to_alcotest chunking_invariance;
    Alcotest.test_case "hybrid run at 100k background flows" `Quick hybrid_run_completes;
    Alcotest.test_case "zero background skips the integrator" `Quick
      zero_background_runs_no_integrator;
  ]
