(* Command-line driver: run any experiment of the reproduction and print
   the series/tables the paper's figures plot. *)

open Cmdliner
module E = Utc_experiments

let setup_logs level =
  Fmt_tty.setup_std_outputs ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let logs_term = Term.(const setup_logs $ Logs_cli.level ())

(* A flag value out of range is a usage error (exit 124), caught where
   the flag is parsed rather than raised from inside a run. *)
let checked ~docv of_string pp ~expected ok =
  let parse s =
    match of_string s with
    | Some x when ok x -> Ok x
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv ~docv (parse, pp)

let int_range lo hi =
  checked ~docv:"N" int_of_string_opt Format.pp_print_int
    ~expected:(Printf.sprintf "an integer in %d..%d" lo hi)
    (fun n -> lo <= n && n <= hi)

let positive_int =
  checked ~docv:"N" int_of_string_opt Format.pp_print_int ~expected:"a positive integer" (fun n ->
      n >= 1)

let non_negative_int =
  checked ~docv:"N" int_of_string_opt Format.pp_print_int ~expected:"a non-negative integer"
    (fun n -> n >= 0)

let positive_float =
  checked ~docv:"X" float_of_string_opt Format.pp_print_float ~expected:"a positive number"
    (fun x -> x > 0.0 && Float.is_finite x)

(* Packet-accurate senders share one bottleneck up to this many; the
   fluid backend takes background populations up to its own cap. *)
let max_senders = 256
let max_background = Utc_elements.Fluid.max_total_flows

(* Flag values that are each in range but not together: a usage error
   all the same. *)
let usage_error fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "utc: %s@." msg;
      exit Cmd.Exit.cli_error)
    fmt

let seed =
  let doc = "Random seed for the ground-truth simulation." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let duration default =
  let doc = "Simulated seconds." in
  Arg.(value & opt positive_float default & info [ "duration" ] ~docv:"SECONDS" ~doc)

let out_file =
  let doc = "Also write gnuplot-ready rows ($(i,time value) per line) to this file." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let domains_opt =
  let doc =
    "Fan whole runs ($(b,sweep), $(b,parallel), and the $(b,sweep) experiment of $(b,trace), \
     $(b,metrics) and $(b,profile)) across N >= 1 domains, capped at the machine's recommended \
     domain count (default: $(b,UTC_DOMAINS) if set, else that count). Commands that run one \
     simulation ignore it. The pool's partition/merge is deterministic, so every result is \
     bit-identical to serial."
  in
  Arg.(value & opt (some positive_int) None & info [ "domains" ] ~docv:"N" ~doc)

(* [--domains] resizes the process-wide pool that [Harness.run_many]
   fans whole runs across. *)
let resolve_pool domains =
  (match domains with
  | Some n -> Utc_parallel.Pool.set_default_domains n
  | None -> ());
  Utc_parallel.Pool.default ()

(* A path that cannot be written or read is reported on one [utc:]
   line, not as an uncaught exception. *)
let file_error msg =
  Format.eprintf "utc: %s@." msg;
  exit Cmd.Exit.some_error

let write_file path write =
  match write ~path with
  | () -> ()
  | exception Sys_error msg -> file_error msg

let dump_rows path rows =
  match path with
  | None -> ()
  | Some path ->
    write_file path
      (Utc_stats.Dataio.write_series
         (List.map (fun (label, points) -> { Utc_stats.Dataio.label; points }) rows));
    Format.printf "wrote %s@." path

(* --- fig1 --- *)

let fig1_cmd =
  let run () seed duration out =
    let result = E.Fig1_bufferbloat.run { E.Fig1_bufferbloat.default with seed; duration } in
    E.Fig1_bufferbloat.pp_report Format.std_formatter result;
    dump_rows out [ ("rtt", result.E.Fig1_bufferbloat.rtt); ("cwnd", result.E.Fig1_bufferbloat.cwnd) ]
  in
  let info = Cmd.info "fig1" ~doc:"Figure 1: TCP RTT over a bufferbloated cellular-like path." in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 250.0 $ out_file)

(* --- fig2 --- *)

let fig2_cmd =
  let run () seed duration =
    let result = E.Fig2_topology.run ~seed ~duration () in
    E.Fig2_topology.pp_report Format.std_formatter result;
    if not result.E.Fig2_topology.agreement then exit 1
  in
  let info = Cmd.info "fig2" ~doc:"Figure 2: build the network model; cross-check interpreters." in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 150.0)

(* --- fig3 --- *)

let alphas =
  let doc = "Cross-traffic priorities to sweep." in
  Arg.(value & opt (list float) E.Fig3_alpha.paper_alphas & info [ "alphas" ] ~docv:"A,B,.." ~doc)

let fig3_cmd =
  let run () seed duration alphas out =
    let runs = E.Fig3_alpha.run_all ~seed ~duration ~alphas () in
    E.Fig3_alpha.pp_report Format.std_formatter runs;
    dump_rows out
      (List.map
         (fun (r : E.Fig3_alpha.run) ->
           (Printf.sprintf "alpha=%g" r.E.Fig3_alpha.alpha, E.Fig3_alpha.sent_series r))
         runs)
  in
  let info = Cmd.info "fig3" ~doc:"Figure 3: sequence number vs time, varying alpha." in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 300.0 $ alphas $ out_file)

(* --- prior --- *)

let prior_cmd =
  let run () seed duration =
    let result = E.Prior_table.run ~seed ~duration () in
    E.Prior_table.pp_report Format.std_formatter result
  in
  let info = Cmd.info "prior" ~doc:"S4 prior table: posterior mass on the true parameters." in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 300.0)

(* --- simple --- *)

let simple_cmd =
  let run () seed duration =
    let unknown = E.Simple_configs.run_unknown_link ~seed ~duration () in
    let drain = E.Simple_configs.run_drain_first ~seed ~duration () in
    E.Simple_configs.pp_report Format.std_formatter unknown drain
  in
  let info = Cmd.info "simple" ~doc:"S4 simple configurations: tentative start; drain-first." in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 120.0)

(* --- util --- *)

let util_cmd =
  let run () =
    Format.printf "S3.3: sum_(t=0..inf) e^(-t/kappa) vs the paper's kappa + 0.5@.@.";
    Format.printf "%10s %14s %14s %10s@." "kappa(ms)" "exact" "paper approx" "rel err";
    List.iter
      (fun kappa ->
        let exact = Utc_utility.Discount.geometric_sum ~kappa in
        let approx = Utc_utility.Discount.paper_approximation ~kappa in
        Format.printf "%10.1f %14.4f %14.4f %10.2e@." kappa exact approx
          (Float.abs (exact -. approx) /. exact))
      [ 10.0; 100.0; 1000.0; 10_000.0 ];
    Format.printf "@.(the approximation holds for r > 1/100 packets per second, i.e.@.";
    Format.printf " kappa = 1000 r >= 10 ms, as the paper claims)@."
  in
  let info = Cmd.info "util" ~doc:"S3.3 utility: verify the geometric-sum approximation." in
  Cmd.v info Term.(const run $ logs_term)

(* --- ablate --- *)

let ablate_cmd =
  let run () seed duration =
    Format.printf "Ablation: inference cap policy@.";
    E.Ablations.pp_rows Format.std_formatter (E.Ablations.cap_policy ~seed ~duration ());
    Format.printf "@.Ablation: gate fork epoch@.";
    E.Ablations.pp_rows Format.std_formatter (E.Ablations.epoch ~seed ~duration ());
    Format.printf "@.Ablation: loss handling (shortened run)@.";
    E.Ablations.pp_rows Format.std_formatter
      (E.Ablations.loss_mode ~seed ~duration:(Float.min duration 60.0) ())
  in
  let info = Cmd.info "ablate" ~doc:"Ablations: cap policy, gate epoch, loss handling." in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 200.0)

(* --- aqm --- *)

let aqm_cmd =
  let run () seed duration =
    Format.printf "Extension: Reno through tail-drop / RED / CoDel (Figure 1 bottleneck)@.@.";
    E.Versus.pp_aqm Format.std_formatter (E.Versus.tcp_under_aqm ~seed ~duration ())
  in
  let info = Cmd.info "aqm" ~doc:"Extension: TCP under active queue management." in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 200.0)

(* --- versus --- *)

let senders_opt =
  let doc =
    "Run the scaled many-sender contention workload instead: N Reno senders (1..256) share a \
     bottleneck whose rate and buffer scale with N, with per-flow accounting in the \
     $(b,versus.flow.*) metric families."
  in
  Arg.(
    value & opt (some (int_range 1 max_senders)) None & info [ "senders" ] ~docv:"N" ~doc)

let versus_cmd =
  let run () seed duration senders =
    match senders with
    | Some senders ->
      Format.printf "Extension: %d Reno senders contending for one bottleneck@.@." senders;
      E.Versus.pp_many Format.std_formatter (E.Versus.many_senders ~seed ~duration ~senders ())
    | None ->
      Format.printf "Extension (S3.5 open question): ISender sharing a bottleneck with TCP@.@.";
      E.Versus.pp_share Format.std_formatter (E.Versus.isender_vs_tcp ~seed ~duration ())
  in
  let info =
    Cmd.info "versus"
      ~doc:
        "Extension: ISender vs TCP on one bottleneck; with $(b,--senders) N, a scaled \
         many-sender Reno contention workload with per-flow metric families. Populations \
         beyond the 256-sender cap run on the mean-field backend: $(b,utc meanfield)."
  in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 300.0 $ senders_opt)

(* --- versus2 --- *)

let versus2_cmd =
  let run () seed duration =
    Format.printf "Extension (S3.5 open question): two ISenders sharing a bottleneck@.@.";
    E.Versus.pp_share Format.std_formatter (E.Versus.isender_vs_isender ~seed ~duration ())
  in
  let info = Cmd.info "versus2" ~doc:"Extension: ISender vs ISender on one bottleneck." in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 300.0)

(* --- meanfield --- *)

let meanfield_cmd =
  let bg_opt =
    let doc = "Fluid background flows." in
    Arg.(value & opt (int_range 0 max_background) 5_000 & info [ "background" ] ~docv:"N" ~doc)
  in
  let fg_opt =
    let doc = "Packet-accurate foreground Reno senders." in
    Arg.(value & opt (int_range 0 max_senders) 2 & info [ "foreground" ] ~docv:"N" ~doc)
  in
  let topo_opt =
    let doc = "Topology: $(b,single) bottleneck or $(b,parking_lot) (two bottlenecks)." in
    Arg.(
      value
      & opt (enum [ ("single", E.Meanfield.Single); ("parking_lot", E.Meanfield.Parking_lot) ])
          E.Meanfield.Single
      & info [ "topo" ] ~docv:"TOPO" ~doc)
  in
  let dt_opt =
    let doc = "Integrator step, seconds." in
    Arg.(value & opt positive_float 0.01 & info [ "dt" ] ~docv:"SECONDS" ~doc)
  in
  let validate_opt =
    let doc =
      "Cross-validate instead: run the fluid backend and the packet-level truth on the same \
       topology and print the agreement. Every background flow is then also a packet sender, \
       so $(b,--background) must be at most 256."
    in
    Arg.(value & flag & info [ "validate" ] ~doc)
  in
  let run () seed duration background foreground topo dt validate =
    if validate then begin
      if background > max_senders then
        usage_error "--validate runs at most %d background flows, got %d" max_senders background;
      let a = E.Meanfield.validate ~seed ~duration ~topo ~n:background () in
      Format.printf "%a@." E.Meanfield.pp_agreement a
    end
    else begin
      Utc_obs.Metrics.enable ();
      Utc_obs.Metrics.reset ();
      let config =
        { E.Meanfield.default_config with seed; duration; background; foreground; topo; dt }
      in
      let summary = E.Meanfield.run ~config () in
      Utc_obs.Metrics.disable ();
      Format.printf "@[<v>%a@]@." E.Meanfield.pp_summary summary;
      (* The population's aggregate families, rendered deterministically:
         the golden snapshot diffs this block. *)
      let snap = Utc_obs.Metrics.snapshot ~at:duration in
      let keep name = String.starts_with ~prefix:"meanfield." name in
      List.iter
        (fun (name, v) -> if keep name then Format.printf "counter %s %d@." name v)
        snap.Utc_obs.Metrics.counters;
      List.iter
        (fun (name, v) -> if keep name then Format.printf "gauge %s %.6g@." name v)
        snap.Utc_obs.Metrics.gauges;
      Utc_obs.Metrics.reset ()
    end
  in
  let info =
    Cmd.info "meanfield"
      ~doc:
        "Mean-field fluid backend: integrate a large background AIMD population against \
         packet-accurate foreground senders; with $(b,--validate), cross-check aggregate \
         goodput and queue occupancy against the packet-level runtime."
  in
  Cmd.v info
    Term.(
      const run $ logs_term $ seed $ duration 120.0 $ bg_opt $ fg_opt $ topo_opt $ dt_opt
      $ validate_opt)

(* --- skew --- *)

let skew_cmd =
  let run () seed duration =
    E.Skew.pp_report Format.std_formatter (E.Skew.run ~seed ~duration ())
  in
  let info = Cmd.info "skew" ~doc:"Extension: infer the return-path delay (S3.4 future work)." in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 120.0)

(* --- faults --- *)

let check_faults_duration duration =
  if duration <= E.Ext_faults.onset then
    usage_error "the faults start at %g s, so --duration must exceed it, got %g"
      E.Ext_faults.onset duration

let faults_cmd =
  let run () seed duration =
    check_faults_duration duration;
    E.Ext_faults.pp_report Format.std_formatter (E.Ext_faults.run_all ~seed ~duration ())
  in
  let info =
    Cmd.info "faults"
      ~doc:"Extension: unmodeled mid-run faults; belief collapse and graceful recovery."
  in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 120.0)

(* --- pomdp --- *)

let pomdp_cmd =
  let run () =
    Format.printf "Precomputed policies (S3.3): the send/idle MDP solved exactly@.@.";
    List.iter
      (fun alpha ->
        let config = { Utc_pomdp.Sender_mdp.default with alpha } in
        let solution = Utc_pomdp.Sender_mdp.solve config in
        Format.printf "alpha=%-4g -> send while occupancy < %d@." alpha
          (Utc_pomdp.Sender_mdp.send_threshold solution))
      [ 0.0; 0.5; 1.0; 2.5; 5.0 ];
    Format.printf "@.policy at alpha=1:@.";
    Utc_pomdp.Sender_mdp.pp_policy Format.std_formatter
      (Utc_pomdp.Sender_mdp.solve Utc_pomdp.Sender_mdp.default);
    Format.printf "@.";
    E.Policy_bridge.pp_report Format.std_formatter (E.Policy_bridge.compare_on_fig3 ())
  in
  let info = Cmd.info "pomdp" ~doc:"S3.3: compute the offline policy for a discretized model." in
  Cmd.v info Term.(const run $ logs_term)

(* --- scale --- *)

let scale_cmd =
  let run () seed duration =
    Format.printf "Filter cost vs prior size (S3.2 computational remark)@.@.";
    E.Scalability.pp_rows Format.std_formatter (E.Scalability.run ~seed ~duration ())
  in
  let info = Cmd.info "scale" ~doc:"Filter wall-clock cost vs prior size; bounded resampler." in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 60.0)

(* --- sweep --- *)

let sweep_cmd =
  let seeds_arg =
    let doc = "Ground-truth seeds to sweep." in
    Arg.(value & opt (list int) [ 1; 2; 3 ] & info [ "seeds" ] ~docv:"S1,S2,.." ~doc)
  in
  let csv =
    let doc = "CSV output path." in
    Arg.(value & opt string "fig3_sweep.csv" & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let run () duration alphas seeds domains csv =
    let pool = resolve_pool domains in
    let cases = List.concat_map (fun seed -> List.map (fun alpha -> (seed, alpha)) alphas) seeds in
    let rows =
      Utc_parallel.Pool.map_list pool
        ~f:(fun (seed, alpha) ->
          let r = E.Fig3_alpha.run_one ~seed ~duration ~alpha () in
          let rates = E.Fig3_alpha.rates r in
          [
            float_of_int seed;
            alpha;
            rates.E.Fig3_alpha.cross_on_rate;
            rates.E.Fig3_alpha.cross_off_rate;
            float_of_int rates.E.Fig3_alpha.overflow_drops_caused;
            float_of_int rates.E.Fig3_alpha.total_sent;
          ])
        cases
    in
    write_file csv
      (Utc_stats.Dataio.write_csv
         ~header:[ "seed"; "alpha"; "on_rate"; "off_rate"; "cross_drops"; "sent" ]
         rows);
    Format.printf "wrote %s (%d rows)@." csv (List.length rows)
  in
  let info =
    Cmd.info "sweep" ~doc:"Figure 3 sweep over alphas and seeds; writes a CSV of rates."
  in
  Cmd.v info Term.(const run $ logs_term $ duration 300.0 $ alphas $ seeds_arg $ domains_opt $ csv)

(* --- parallel --- *)

let parallel_cmd =
  let out =
    let doc = "Write the machine-readable report to this file." in
    Arg.(value & opt string "BENCH_parallel.json" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let run () seed duration domains out =
    let report = E.Par_bench.run ?domains ~seed ~duration () in
    E.Par_bench.pp_report Format.std_formatter report;
    write_file out (E.Par_bench.write_json report);
    Format.printf "wrote %s@." out;
    let regressed =
      match E.Par_bench.regressions report with
      | [] -> false
      | _ :: _ -> true
    in
    if (not report.E.Par_bench.all_identical) || regressed then exit 1
  in
  let info =
    Cmd.info "parallel"
      ~doc:
        "Serial vs pooled wall time for a sweep of whole harness runs, with a bit-equality \
         attestation; exits non-zero on any divergence or when the pool makes the sweep slower \
         than serial."
  in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 30.0 $ domains_opt $ out)

(* --- families --- *)

let families_cmd =
  let run () seed duration =
    Format.printf "Richer model families (S3.1 compositionality)@.@.";
    E.Families.pp_result Format.std_formatter (E.Families.two_hop ~seed ~duration ());
    E.Families.pp_result Format.std_formatter (E.Families.bursty_cross ~seed ~duration ())
  in
  let info = Cmd.info "families" ~doc:"Inference over two-hop and bursty-cross model families." in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 120.0)

(* --- trace / metrics / obsbench (telemetry layer) --- *)

let traceable =
  [
    ("fig1", `Fig1);
    ("fig3", `Fig3);
    ("paper", `Paper);
    ("faults", `Faults);
    ("sweep", `Sweep);
    ("versus", `Versus);
    ("meanfield", `Meanfield);
  ]

let experiment_arg =
  let doc =
    Printf.sprintf "Experiment to run under telemetry: %s."
      (String.concat ", " (List.map fst traceable))
  in
  Arg.(required & pos 0 (some (enum traceable)) None & info [] ~docv:"EXPERIMENT" ~doc)

(* One deterministic run of the selected experiment; telemetry is read
   back by the caller. [sweep] fans three whole runs across the domain
   pool via [Harness.run_many] — the per-run-sink path whose journal is
   byte-identical at any --domains count; [versus] is the many-sender
   contention workload exercising the per-flow metric families. *)
let run_traced experiment ~seed ~duration ~senders =
  match experiment with
  | `Fig1 ->
    ignore
      (E.Fig1_bufferbloat.run { E.Fig1_bufferbloat.default with seed; duration }
        : E.Fig1_bufferbloat.result)
  | `Fig3 -> ignore (E.Fig3_alpha.run_one ~seed ~duration ~alpha:1.0 () : E.Fig3_alpha.run)
  | `Paper -> ignore (E.Harness.run { E.Harness.default with seed; duration } : E.Harness.result)
  | `Faults ->
    check_faults_duration duration;
    ignore (E.Ext_faults.run_rate_flap ~seed ~duration () : E.Ext_faults.scenario)
  | `Sweep ->
    let prior = E.Scalability.thin 32 (Utc_inference.Priors.paper_prior ()) in
    let configs =
      List.map
        (fun s -> { E.Harness.default with seed = s; duration; prior })
        [ seed; seed + 1; seed + 2 ]
    in
    ignore (E.Harness.run_many configs : E.Harness.result list)
  | `Versus ->
    let senders = Option.value senders ~default:8 in
    ignore (E.Versus.many_senders ~seed ~duration ~senders () : E.Versus.many)
  | `Meanfield ->
    let foreground = Option.value senders ~default:2 in
    ignore
      (E.Meanfield.run ~config:{ E.Meanfield.default_config with seed; duration; foreground } ()
        : E.Meanfield.summary)

let trace_cmd =
  let trace_out =
    let doc = "Write the exported trace to this file." in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let trace_format =
    let doc = "Export format: $(b,jsonl) (one event per line) or $(b,chrome) (trace_event)." in
    Arg.(
      value
      & opt (enum [ ("jsonl", Utc_obs.Export.Jsonl); ("chrome", Utc_obs.Export.Chrome) ])
          Utc_obs.Export.Jsonl
      & info [ "trace-format" ] ~docv:"FMT" ~doc)
  in
  let trace_capacity =
    let doc = "Journal ring capacity (oldest events drop beyond it)." in
    Arg.(
      value
      & opt positive_int Utc_obs.Sink.default_capacity
      & info [ "trace-capacity" ] ~docv:"N" ~doc)
  in
  let head =
    let doc = "Also print the first N journal lines (always JSONL) to stdout." in
    Arg.(value & opt non_negative_int 0 & info [ "head" ] ~docv:"N" ~doc)
  in
  let series_out =
    let doc =
      "Write the belief-entropy/ESS/size and planner-margin series as gnuplot rows to this file."
    in
    Arg.(value & opt (some string) None & info [ "series-out" ] ~docv:"FILE" ~doc)
  in
  let run () experiment seed duration senders domains fmt capacity head trace_out series_out =
    ignore (resolve_pool domains : Utc_parallel.Pool.t);
    Utc_obs.Metrics.enable ();
    Utc_obs.Metrics.reset ();
    Utc_obs.Sink.enable ~capacity ();
    Utc_obs.Sink.reset ();
    run_traced experiment ~seed ~duration ~senders;
    Utc_obs.Sink.disable ();
    Utc_obs.Metrics.disable ();
    let events = Utc_obs.Sink.events () in
    let _, dropped = Utc_obs.Sink.stats () in
    Format.printf "events=%d dropped=%d@." (List.length events) dropped;
    (match trace_out with
    | Some path ->
      write_file path (Utc_obs.Export.write (Utc_obs.Export.render fmt events));
      Format.printf "wrote %s@." path
    | None -> ());
    let rec take n = function
      | [] -> []
      | _ :: _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    List.iter
      (fun r -> Format.printf "%s@." (Utc_obs.Export.jsonl_line r))
      (take head events);
    dump_rows series_out (Utc_obs.Export.series events);
    Utc_obs.Sink.reset ();
    Utc_obs.Metrics.reset ()
  in
  let info =
    Cmd.info "trace"
      ~doc:
        "Run an experiment with the telemetry journal enabled and export the event trace \
         (JSONL or Chrome trace_event). The trace is byte-identical for a fixed seed at any \
         $(b,--domains) count."
  in
  Cmd.v info
    Term.(
      const run $ logs_term $ experiment_arg $ seed $ duration 120.0 $ senders_opt $ domains_opt
      $ trace_format $ trace_capacity $ head $ trace_out $ series_out)

let metrics_cmd =
  let json =
    let doc =
      "Print the snapshot as one-line JSON without profiling (wall-clock) fields — \
       bit-deterministic for a fixed seed."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let profile_flag =
    let doc =
      "Include the profiling fields (wall seconds, allocation words) in the JSON snapshot. \
       These vary run to run; leave off for determinism diffs. The $(b,utc top) dashboard \
       reads a $(b,--json --profile) snapshot to show wall-clock phase costs."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let run () experiment seed duration senders domains json profile =
    ignore (resolve_pool domains : Utc_parallel.Pool.t);
    Utc_obs.Metrics.enable ();
    Utc_obs.Metrics.reset ();
    run_traced experiment ~seed ~duration ~senders;
    Utc_obs.Metrics.disable ();
    let snapshot = Utc_obs.Metrics.snapshot ~at:duration in
    if json then Format.printf "%s@." (Utc_obs.Metrics.snapshot_json ~profile snapshot)
    else Utc_obs.Metrics.pp_snapshot Format.std_formatter snapshot;
    Utc_obs.Metrics.reset ()
  in
  let info =
    Cmd.info "metrics"
      ~doc:
        "Run an experiment with the metrics registry enabled and print the counter / gauge / \
         histogram / span snapshot."
  in
  Cmd.v info
    Term.(
      const run $ logs_term $ experiment_arg $ seed $ duration 120.0 $ senders_opt $ domains_opt
      $ json $ profile_flag)

(* --- profile --- *)

let profile_cmd =
  let top =
    let doc = "Rows in the self-time top table." in
    Arg.(value & opt non_negative_int 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let format =
    let doc = "Output format: $(b,text) (tree + top table) or $(b,json)." in
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
        & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let sim_only =
    let doc =
      "Render only the deterministic columns (sim-time and call counts); the output is \
       byte-identical for a fixed seed at any $(b,--domains) count."
    in
    Arg.(value & flag & info [ "sim-only" ] ~doc)
  in
  let run () experiment seed duration domains top format sim_only =
    ignore (resolve_pool domains : Utc_parallel.Pool.t);
    Utc_obs.Metrics.enable ();
    Utc_obs.Metrics.reset ();
    run_traced experiment ~seed ~duration ~senders:None;
    Utc_obs.Metrics.disable ();
    let snapshot = Utc_obs.Metrics.snapshot ~at:duration in
    let tree = Utc_obs.Profile.of_spans snapshot.Utc_obs.Metrics.spans in
    (match format with
    | `Text -> print_string (Utc_obs.Profile.render_text ~top ~sim_only tree)
    | `Json -> print_endline (Utc_obs.Profile.render_json ~top ~sim_only tree));
    Utc_obs.Metrics.reset ()
  in
  let info =
    Cmd.info "profile"
      ~doc:
        "Run an experiment under the hierarchical profiler and print the nested span tree \
         with per-phase cost attribution (self vs cumulative sim/wall time, call counts, \
         allocation). With $(b,--sim-only), the rendering is bit-deterministic at any \
         $(b,--domains) count."
  in
  Cmd.v info
    Term.(
      const run $ logs_term $ experiment_arg $ seed $ duration 120.0 $ domains_opt $ top
      $ format $ sim_only)

(* --- top --- *)

(* Both raise [Sys_error] on a file that cannot be opened. *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let top_cmd =
  let journal_arg =
    let doc =
      "JSONL journal to read (as written by $(b,utc trace ... --trace-out FILE)). Reread on \
       every refresh under $(b,--follow), so a journal being appended to works."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JOURNAL" ~doc)
  in
  let metrics_arg =
    let doc =
      "Metrics snapshot JSON (from $(b,utc metrics ... --json --profile)); adds the phase \
       cost bars."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let window =
    let doc = "Trailing goodput window, simulated seconds." in
    Arg.(value & opt positive_float 5.0 & info [ "window" ] ~docv:"SECONDS" ~doc)
  in
  let interval =
    let doc = "Refresh interval under $(b,--follow), wall seconds." in
    Arg.(value & opt positive_float 1.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let follow =
    let doc = "Keep refreshing (clearing the screen each frame) until interrupted." in
    Arg.(value & flag & info [ "follow"; "f" ] ~doc)
  in
  let width =
    let doc = "Frame width in columns." in
    Arg.(value & opt positive_int 72 & info [ "width" ] ~docv:"COLS" ~doc)
  in
  let run () journal metrics window interval follow width =
    (* Under --follow a file may not exist yet and reads as absent;
       otherwise a file that cannot be read is an error. *)
    let read f path =
      match f path with
      | contents -> Some contents
      | exception Sys_error msg -> if follow then None else file_error msg
    in
    let frame () =
      let metrics_json = Option.bind metrics (read read_file) in
      let journal_lines = Option.value (read read_lines journal) ~default:[] in
      Utc_stats.Dashboard.render_frame ~width ~window ?metrics_json ~journal_lines ()
    in
    if follow then
      (* Read-only tail loop: the dashboard renders from files on disk,
         so it cannot perturb the run that produces them. *)
      let rec loop () =
        print_string "\027[H\027[2J";
        print_string (frame ());
        flush stdout;
        Unix.sleepf interval;
        loop ()
      in
      loop ()
    else print_string (frame ())
  in
  let info =
    Cmd.info "top"
      ~doc:
        "Live terminal dashboard over a telemetry journal: per-flow goodput, belief \
         entropy/ESS, recovery state, and span-phase cost bars. Read-only — it tails files \
         other commands write and has zero effect on determinism."
  in
  Cmd.v info
    Term.(const run $ logs_term $ journal_arg $ metrics_arg $ window $ interval $ follow $ width)

let obsbench_cmd =
  let out =
    let doc = "Write the machine-readable report to this file." in
    Arg.(value & opt string "BENCH_obs.json" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let repeats =
    let doc = "Wall-time repetitions per configuration (best is kept)." in
    Arg.(value & opt positive_int 3 & info [ "repeats" ] ~docv:"N" ~doc)
  in
  let run () seed duration repeats out =
    let report = E.Obs_bench.run ~seed ~duration ~repeats () in
    E.Obs_bench.pp_report Format.std_formatter report;
    write_file out (E.Obs_bench.write_json report);
    Format.printf "wrote %s@." out
  in
  let info =
    Cmd.info "obsbench"
      ~doc:
        "Measure the telemetry layer's overhead: enabled vs disabled wall time, plus the \
         per-call cost of the disabled recording guard."
  in
  Cmd.v info Term.(const run $ logs_term $ seed $ duration 60.0 $ repeats $ out)

let fluidbench_cmd =
  let out =
    let doc = "Write the machine-readable report to this file." in
    Arg.(value & opt string "BENCH_meanfield.json" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let run () out =
    Format.printf "Mean-field fluid backend: wall time vs background population@.@.";
    let rows = E.Meanfield.bench () in
    E.Meanfield.pp_bench Format.std_formatter rows;
    write_file out (E.Meanfield.write_bench_json rows);
    Format.printf "wrote %s@." out
  in
  let info =
    Cmd.info "fluidbench"
      ~doc:
        "Time the mean-field fluid backend on a ladder of background populations (10^3 to \
         10^6 flows, 60 simulated seconds each, single bottleneck)."
  in
  Cmd.v info Term.(const run $ logs_term $ out)

let main_cmd =
  let info =
    Cmd.info "utc" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'End-to-End Transmission Control by Modeling Uncertainty about the \
         Network State' (HotNets-X 2011)."
  in
  Cmd.group info
    [ fig1_cmd; fig2_cmd; fig3_cmd; prior_cmd; simple_cmd; util_cmd; ablate_cmd; aqm_cmd;
      versus_cmd; versus2_cmd; meanfield_cmd; skew_cmd; faults_cmd; pomdp_cmd; families_cmd;
      sweep_cmd;
      scale_cmd; parallel_cmd; trace_cmd; metrics_cmd; profile_cmd; top_cmd; obsbench_cmd;
      fluidbench_cmd ]

(* A bad UTC_DOMAINS is a usage error, like a bad --domains. *)
let () =
  match Utc_parallel.Pool.default_domains () with
  | _ -> exit (Cmd.eval main_cmd)
  | exception Invalid_argument msg ->
    Format.eprintf "utc: %s@." msg;
    exit Cmd.Exit.cli_error
