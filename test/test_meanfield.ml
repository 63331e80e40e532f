(* Cross-validation and determinism tests for the mean-field fluid
   backend: the fluid aggregates must track packet-level truth within
   stated, asserted tolerances where both backends can run, and a
   repeated run must reproduce its journal and metrics byte for byte. *)

module Meanfield = Utc_experiments.Meanfield
module Metrics = Utc_obs.Metrics
module Sink = Utc_obs.Sink
module Export = Utc_obs.Export

(* The stated tolerances the suite enforces (EXPERIMENTS.md quotes the
   measured agreement, well inside these):
   - steady-state aggregate goodput within 5% relative error;
   - steady-state queue occupancy within 25% of the total buffer
     capacity (relative error degenerates when queues sit near empty,
     so the bound is stated against capacity). *)
let goodput_tolerance = 0.05
let queue_tolerance = 0.25

let topo_name = function
  | Meanfield.Single -> "single"
  | Meanfield.Parking_lot -> "parking_lot"

let check_agreement (a : Meanfield.agreement) =
  if a.Meanfield.goodput_rel_err > goodput_tolerance then
    Alcotest.failf "%s N=%d: goodput rel err %.4f exceeds %.2f (fluid %.4g vs packet %.4g)"
      (topo_name a.Meanfield.a_topo)
      a.Meanfield.a_n a.Meanfield.goodput_rel_err goodput_tolerance a.Meanfield.fluid_goodput_bps
      a.Meanfield.packet_goodput_bps;
  if a.Meanfield.queue_frac_of_buffer > queue_tolerance then
    Alcotest.failf "%s N=%d: queue error %.4f of buffer exceeds %.2f (fluid %.4g vs packet %.4g)"
      (topo_name a.Meanfield.a_topo)
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

(* --- determinism: repeat-run byte identity ---

   A mean-field run is serial and fans nothing out, so there is no pool
   to vary; what is checked is that the same seed gives the same journal
   and metrics snapshot twice in one process, with the registry and the
   sink reset in between. *)

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

let meanfield_run_outputs seed =
  with_telemetry (fun () ->
      Sink.enable ();
      let config =
        { Meanfield.default_config with seed; duration = 30.0; background = 2_000 }
      in
      ignore (Meanfield.run ~config () : Meanfield.summary);
      let journal = Export.render Export.Jsonl (Sink.events ()) in
      let metrics = Metrics.snapshot_json ~profile:false (Metrics.snapshot ~at:30.0) in
      (journal, metrics))

let repeat_run_identity =
  QCheck.Test.make ~name:"meanfield journal and metrics repeat byte for byte" ~count:2
    QCheck.(int_range 1 1000)
    (fun seed ->
      let first_journal, first_metrics = meanfield_run_outputs seed in
      let second_journal, second_metrics = meanfield_run_outputs seed in
      if not (String.equal first_journal second_journal) then
        QCheck.Test.fail_reportf "journal differs between two runs (seed %d)" seed;
      if not (String.equal first_metrics second_metrics) then
        QCheck.Test.fail_reportf "metrics differ between two runs (seed %d)" seed;
      String.length first_journal > 0)

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
    QCheck_alcotest.to_alcotest repeat_run_identity;
    Alcotest.test_case "hybrid run at 100k background flows" `Quick hybrid_run_completes;
    Alcotest.test_case "zero background skips the integrator" `Quick
      zero_background_runs_no_integrator;
  ]
