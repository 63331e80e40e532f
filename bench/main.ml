(* Benchmark harness: regenerates every table and figure of the paper
   (the "reports"), then times the kernels and a scaled-down version of
   each experiment with Bechamel.

     dune exec bench/main.exe                 -- reports + timings
     dune exec bench/main.exe -- reports      -- reports only
     dune exec bench/main.exe -- kernels      -- timings only
     dune exec bench/main.exe -- fig1|fig2|fig3|prior|simple|util|ablate|aqm|versus|faults|..
*)

module E = Utc_experiments
open Utc_net

let section title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

(* --- reports: one per table/figure --- *)

let report_fig1 () =
  section "Figure 1 - RTT of a TCP download over an LTE-like path";
  E.Fig1_bufferbloat.pp_report Format.std_formatter (E.Fig1_bufferbloat.run E.Fig1_bufferbloat.default)

let report_fig2 () =
  section "Figure 2 - the network model (element language + interpreter agreement)";
  E.Fig2_topology.pp_report Format.std_formatter (E.Fig2_topology.run ())

let report_fig3 () =
  section "Figure 3 - sequence number vs time, varying alpha";
  E.Fig3_alpha.pp_report Format.std_formatter (E.Fig3_alpha.run_all ())

let report_prior () =
  section "S4 prior table - posterior mass on the true parameters";
  E.Prior_table.pp_report Format.std_formatter (E.Prior_table.run ())

let report_simple () =
  section "S4 simple configurations";
  let unknown = E.Simple_configs.run_unknown_link () in
  let drain = E.Simple_configs.run_drain_first () in
  E.Simple_configs.pp_report Format.std_formatter unknown drain

let report_util () =
  section "S3.3 utility - geometric-sum approximation";
  Format.printf "%10s %14s %14s %10s@." "kappa(ms)" "exact" "kappa + 0.5" "rel err";
  List.iter
    (fun kappa ->
      let exact = Utc_utility.Discount.geometric_sum ~kappa in
      let approx = Utc_utility.Discount.paper_approximation ~kappa in
      Format.printf "%10.1f %14.4f %14.4f %10.2e@." kappa exact approx
        (Float.abs (exact -. approx) /. exact))
    [ 10.0; 100.0; 1000.0; 10_000.0 ]

let report_ablate () =
  section "Ablations - inference cap policy / gate epoch / loss handling";
  Format.printf "cap policy:@.";
  E.Ablations.pp_rows Format.std_formatter (E.Ablations.cap_policy ());
  Format.printf "@.gate fork epoch:@.";
  E.Ablations.pp_rows Format.std_formatter (E.Ablations.epoch ());
  Format.printf "@.loss handling (60 s):@.";
  E.Ablations.pp_rows Format.std_formatter (E.Ablations.loss_mode ())

let report_aqm () =
  section "Extension - TCP under AQM (tail-drop / RED / CoDel)";
  E.Versus.pp_aqm Format.std_formatter (E.Versus.tcp_under_aqm ())

let report_versus () =
  section "Extension - ISender vs TCP on one bottleneck (S3.5 open question)";
  E.Versus.pp_share Format.std_formatter (E.Versus.isender_vs_tcp ~duration:120.0 ())

let report_versus2 () =
  section "Extension - two ISenders on one bottleneck (S3.5 open question)";
  E.Versus.pp_share Format.std_formatter (E.Versus.isender_vs_isender ~duration:120.0 ())

let report_skew () =
  section "Extension - return-path delay as an inferred parameter (S3.4)";
  E.Skew.pp_report Format.std_formatter (E.Skew.run ())

let report_faults () =
  section "Extension - unmodeled faults: belief collapse and graceful recovery";
  E.Ext_faults.pp_report Format.std_formatter (E.Ext_faults.run_all ())

let report_pomdp () =
  section "S3.3 - precomputed policy for a discretized model";
  List.iter
    (fun alpha ->
      let config = { Utc_pomdp.Sender_mdp.default with Utc_pomdp.Sender_mdp.alpha } in
      let solution = Utc_pomdp.Sender_mdp.solve config in
      Format.printf "alpha=%-4g -> send while occupancy < %d@." alpha
        (Utc_pomdp.Sender_mdp.send_threshold solution))
    [ 0.0; 0.5; 1.0; 2.5; 5.0 ];
  Format.printf "@.";
  E.Policy_bridge.pp_report Format.std_formatter (E.Policy_bridge.compare_on_fig3 ())

let report_scale () =
  section "S3.2 - filter cost vs prior size";
  E.Scalability.pp_rows Format.std_formatter (E.Scalability.run ())

let report_parallel () =
  section "Parallel execution - domain pool vs serial, bit-equality attestation";
  let report = E.Par_bench.run () in
  E.Par_bench.pp_report Format.std_formatter report;
  E.Par_bench.write_json ~path:"BENCH_parallel.json" report;
  Format.printf "wrote BENCH_parallel.json@.";
  let regressed =
    match E.Par_bench.regressions report with
    | [] -> false
    | _ :: _ -> true
  in
  if (not report.E.Par_bench.all_identical) || regressed then begin
    Format.printf "parallel benchmark FAILED: divergence or pooled-sweep regression@.";
    exit 1
  end

let report_obs () =
  section "Observability - telemetry overhead, sink disabled vs enabled";
  let report = E.Obs_bench.run () in
  E.Obs_bench.pp_report Format.std_formatter report;
  E.Obs_bench.write_json ~path:"BENCH_obs.json" report;
  Format.printf "wrote BENCH_obs.json@."

let report_meanfield () =
  section "Mean-field fluid backend - wall time vs background population";
  let rows = E.Meanfield.bench () in
  E.Meanfield.pp_bench Format.std_formatter rows;
  E.Meanfield.write_bench_json ~path:"BENCH_meanfield.json" rows;
  Format.printf "wrote BENCH_meanfield.json@."

let report_families () =
  section "Extension - richer model families (S3.1 compositionality)";
  E.Families.pp_result Format.std_formatter (E.Families.two_hop ());
  E.Families.pp_result Format.std_formatter (E.Families.bursty_cross ())

let reports =
  [
    ("fig1", report_fig1);
    ("fig2", report_fig2);
    ("fig3", report_fig3);
    ("prior", report_prior);
    ("simple", report_simple);
    ("util", report_util);
    ("ablate", report_ablate);
    ("aqm", report_aqm);
    ("versus", report_versus);
    ("versus2", report_versus2);
    ("skew", report_skew);
    ("faults", report_faults);
    ("pomdp", report_pomdp);
    ("families", report_families);
    ("scale", report_scale);
    ("parallel", report_parallel);
    ("obs", report_obs);
    ("meanfield", report_meanfield);
  ]

(* --- Bechamel kernels --- *)

let fig2_compiled =
  lazy
    (Compiled.compile_exn
       (Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.2 ~pinger_pps:0.7
          ~cross_gate:(Topology.squarewave ~interval:100.0 ())))

let bench_forward_window () =
  let compiled = Lazy.force fig2_compiled in
  let prepared = Utc_model.Forward.prepare Utc_model.Forward.default_config compiled in
  let state = Utc_model.Mstate.initial ~epoch:1.0 compiled in
  let sends =
    List.map
      (fun i -> (float_of_int i, Packet.make ~flow:Flow.Primary ~seq:i ~sent_at:(float_of_int i) ()))
      [ 1; 3; 5; 7 ]
  in
  fun () -> ignore (Utc_model.Forward.run prepared state ~sends ~until:10.0)

let bench_canonical () =
  let compiled = Lazy.force fig2_compiled in
  let state = Utc_model.Mstate.initial ~epoch:1.0 compiled in
  fun () -> ignore (Utc_model.Mstate.canonical state)

let bench_hash () =
  let compiled = Lazy.force fig2_compiled in
  let state = Utc_model.Mstate.initial ~epoch:1.0 compiled in
  fun () -> ignore (Utc_model.Mstate.hash state)

(* Against a second, physically distinct build of the same state, so
   the comparison walks every node and event. *)
let bench_equal () =
  let compiled = Lazy.force fig2_compiled in
  let state = Utc_model.Mstate.initial ~epoch:1.0 compiled in
  let twin = Utc_model.Mstate.initial ~epoch:1.0 compiled in
  fun () -> ignore (Utc_model.Mstate.equal state twin)

let small_belief () =
  let prior = List.filteri (fun i _ -> i mod 37 = 0) (Utc_inference.Priors.paper_prior ()) in
  Utc_inference.Belief.create
    (Utc_inference.Priors.seeds ~config:Utc_model.Forward.default_config prior)

let bench_belief_update () =
  let belief = small_belief () in
  let sends = [ (0.5, Packet.make ~flow:Flow.Primary ~seq:0 ~sent_at:0.5 ()) ] in
  fun () ->
    ignore
      (Utc_inference.Belief.update belief ~sends
         ~acks:[ { Utc_inference.Belief.seq = 0; time = 1.5 } ]
         ~now:2.0 ())

let bench_planner_decide () =
  let belief = small_belief () in
  let belief = Utc_inference.Belief.advance belief ~sends:[] ~now:0.5 () in
  let make_packet at = Packet.make ~flow:Flow.Primary ~seq:0 ~sent_at:at () in
  fun () ->
    ignore
      (Utc_core.Planner.decide
         { Utc_core.Planner.default_config with delays = E.Harness.paper_delays }
         ~belief ~now:0.5 ~pending:[] ~make_packet)

let bench_ground_truth_loop () =
 fun () ->
  let engine = Utc_sim.Engine.create ~seed:1 () in
  let runtime =
    Utc_elements.Runtime.build engine (Lazy.force fig2_compiled)
      (Utc_elements.Runtime.callbacks ())
  in
  ignore runtime;
  Utc_sim.Engine.run ~until:100.0 engine

(* The last endpoint of a 256-endpoint network: the entry table's cost
   must not grow with the number of flows. *)
let bench_entry_256 () =
  let flows = List.init 256 (fun i -> Flow.Aux i) in
  let compiled =
    Compiled.compile_exn
      {
        Topology.sources = List.map Topology.endpoint flows;
        shared = Topology.throughput ~rate_bps:12_000.0;
      }
  in
  let last = Flow.Aux 255 in
  fun () -> ignore (Compiled.entry compiled last)

let bench_rng () =
  let rng = Utc_sim.Rng.create ~seed:1 in
  fun () -> ignore (Utc_sim.Rng.bits64 rng)

let bench_pheap () =
 fun () ->
  let heap = Utc_sim.Pheap.create () in
  for i = 0 to 99 do
    Utc_sim.Pheap.add heap ~time:(float_of_int (i * 7919 mod 100)) i
  done;
  while Utc_sim.Pheap.pop heap <> None do
    ()
  done

(* Scaled-down experiment timings: one Test.make per figure/table. *)
let bench_fig1_scaled () =
 fun () -> ignore (E.Fig1_bufferbloat.run { E.Fig1_bufferbloat.default with duration = 20.0 })

let bench_fig2_check () = fun () -> ignore (E.Fig2_topology.run ())
let bench_fig3_scaled () = fun () -> ignore (E.Fig3_alpha.run_one ~duration:20.0 ~alpha:1.0 ())
let bench_prior_scaled () = fun () -> ignore (E.Prior_table.run ~duration:20.0 ())
let bench_simple_scaled () = fun () -> ignore (E.Simple_configs.run_unknown_link ~duration:20.0 ())
let bench_util () = fun () -> ignore (Utc_utility.Discount.geometric_sum ~kappa:1000.0)
let bench_ablate_scaled () = fun () -> ignore (E.Ablations.loss_mode ~duration:8.0 ())
let bench_aqm_scaled () = fun () -> ignore (E.Versus.tcp_under_aqm ~duration:10.0 ())
let bench_versus_scaled () = fun () -> ignore (E.Versus.isender_vs_tcp ~duration:20.0 ())
let bench_reno256_scaled () = fun () -> ignore (E.Versus.many_senders ~senders:256 ~duration:20.0 ())
let bench_skew_scaled () = fun () -> ignore (E.Skew.run ~duration:20.0 ())
let bench_faults_scaled () = fun () -> ignore (E.Ext_faults.run_rate_flap ~duration:60.0 ())
let bench_pomdp () = fun () -> ignore (Utc_pomdp.Sender_mdp.solve Utc_pomdp.Sender_mdp.default)

let run_kernels () =
  let open Bechamel in
  let test name f = Test.make ~name (Staged.stage (f ())) in
  let grouped =
    Test.make_grouped ~name:"utc"
      [
        test "kernel/rng.bits64" bench_rng;
        test "kernel/pheap.100" bench_pheap;
        test "kernel/mstate.canonical" bench_canonical;
        test "kernel/mstate.hash" bench_hash;
        test "kernel/mstate.equal" bench_equal;
        test "kernel/forward.window-10s" bench_forward_window;
        test "kernel/belief.update" bench_belief_update;
        test "kernel/planner.decide" bench_planner_decide;
        test "kernel/ground-truth.100s" bench_ground_truth_loop;
        test "kernel/compiled.entry-256" bench_entry_256;
        test "fig1/reno-20s" bench_fig1_scaled;
        test "fig2/agreement" bench_fig2_check;
        test "fig3/alpha1-20s" bench_fig3_scaled;
        test "prior/20s" bench_prior_scaled;
        test "simple/20s" bench_simple_scaled;
        test "util/geometric-sum" bench_util;
        test "ablate/loss-8s" bench_ablate_scaled;
        test "aqm/10s" bench_aqm_scaled;
        test "versus/20s" bench_versus_scaled;
        test "versus/reno256-20s" bench_reno256_scaled;
        test "skew/20s" bench_skew_scaled;
        test "faults/rate-flap-60s" bench_faults_scaled;
        test "pomdp/solve" bench_pomdp;
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  section "Kernel timings (Bechamel, monotonic clock)";
  Format.printf "%-28s %16s@." "benchmark" "per run";
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ nanoseconds ] -> rows := (name, nanoseconds) :: !rows
      | Some _ | None -> rows := (name, nan) :: !rows)
    results;
  let humanize ns =
    if Float.is_nan ns then "n/a"
    else if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
    else Printf.sprintf "%8.0f ns" ns
  in
  List.iter
    (fun (name, ns) -> Format.printf "%-28s %16s@." name (humanize ns))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) !rows)

let usage () =
  Format.printf "usage: main.exe [reports|kernels|%s]@." (String.concat "|" (List.map fst reports))

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "kernels" :: _ -> run_kernels ()
  | _ :: "reports" :: _ -> List.iter (fun (_, f) -> f ()) reports
  | [ _ ] ->
    List.iter (fun (_, f) -> f ()) reports;
    run_kernels ()
  | _ :: name :: _ -> (
    match List.find_opt (fun (report, _) -> String.equal report name) reports with
    | Some (_, f) -> f ()
    | None -> usage ())
  | [] -> usage ()
