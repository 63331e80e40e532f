(* Tests for summaries, fairness metrics, and the ASCII plotter. *)
module Summary = Utc_stats.Summary
module Fairness = Utc_stats.Fairness
module Ascii_plot = Utc_stats.Ascii_plot

let summary_of_known_list () =
  match Summary.of_list [ 1.0; 2.0; 3.0; 4.0; 5.0 ] with
  | None -> Alcotest.fail "no summary"
  | Some s ->
    Alcotest.(check int) "count" 5 s.Summary.count;
    Alcotest.(check (float 1e-9)) "mean" 3.0 s.Summary.mean;
    Alcotest.(check (float 1e-9)) "min" 1.0 s.Summary.min;
    Alcotest.(check (float 1e-9)) "max" 5.0 s.Summary.max;
    Alcotest.(check (float 1e-9)) "p50" 3.0 s.Summary.p50;
    Alcotest.(check (float 1e-9)) "stddev" (sqrt 2.0) s.Summary.stddev

let summary_empty () = Alcotest.(check bool) "none" true (Summary.of_list [] = None)

let percentile_nearest_rank () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  Alcotest.(check (float 1e-9)) "p25" 10.0 (Summary.percentile xs ~q:0.25);
  Alcotest.(check (float 1e-9)) "p50" 20.0 (Summary.percentile xs ~q:0.5);
  Alcotest.(check (float 1e-9)) "p100" 40.0 (Summary.percentile xs ~q:1.0);
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Summary.percentile xs ~q:0.0)

let percentile_bounds_prop =
  QCheck.Test.make ~name:"percentile lies within min..max" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 50) (float_bound_exclusive 100.0)) (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let p = Summary.percentile xs ~q in
      p >= List.fold_left Float.min infinity xs && p <= List.fold_left Float.max neg_infinity xs)

let jain_known_values () =
  Alcotest.(check (float 1e-9)) "equal" 1.0 (Fairness.jain [ 5.0; 5.0; 5.0 ]);
  Alcotest.(check (float 1e-9)) "one hog" (1.0 /. 3.0) (Fairness.jain [ 9.0; 0.0; 0.0 ]);
  Alcotest.(check (float 1e-9)) "zero total" 0.0 (Fairness.jain [ 0.0; 0.0 ])

let jain_range_prop =
  QCheck.Test.make ~name:"jain index in [1/n, 1] for positive allocations" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 10) (float_range 0.1 100.0))
    (fun xs ->
      let j = Fairness.jain xs in
      let n = float_of_int (List.length xs) in
      j >= (1.0 /. n) -. 1e-9 && j <= 1.0 +. 1e-9)

let plot_contains_markers () =
  let text =
    Ascii_plot.render ~width:40 ~height:10
      [
        { Ascii_plot.label = "up"; points = List.init 20 (fun i -> (float_of_int i, float_of_int i)) };
        { Ascii_plot.label = "down"; points = List.init 20 (fun i -> (float_of_int i, float_of_int (20 - i))) };
      ]
  in
  Alcotest.(check bool) "first marker" true (String.contains text '*');
  Alcotest.(check bool) "second marker" true (String.contains text '+');
  Alcotest.(check bool) "legend" true (String.length text > 100)

let plot_empty_series () =
  Alcotest.(check string) "no data note" "(no data)\n" (Ascii_plot.render []);
  Alcotest.(check string) "empty points skipped" "(no data)\n"
    (Ascii_plot.render [ { Ascii_plot.label = "x"; points = [] } ])

let plot_log_scale () =
  let text =
    Ascii_plot.render_one ~width:30 ~height:8 ~log_y:true ~label:"rtt"
      [ (0.0, 0.1); (1.0, 1.0); (2.0, 10.0) ]
  in
  Alcotest.(check bool) "renders" true (String.length text > 50)

let plot_single_point () =
  let text = Ascii_plot.render_one ~label:"p" [ (1.0, 1.0) ] in
  Alcotest.(check bool) "degenerate spans ok" true (String.length text > 10)

let suite =
  [
    ("summary known list", `Quick, summary_of_known_list);
    ("summary empty", `Quick, summary_empty);
    ("percentile nearest rank", `Quick, percentile_nearest_rank);
    QCheck_alcotest.to_alcotest percentile_bounds_prop;
    ("jain known values", `Quick, jain_known_values);
    QCheck_alcotest.to_alcotest jain_range_prop;
    ("plot markers", `Quick, plot_contains_markers);
    ("plot empty", `Quick, plot_empty_series);
    ("plot log scale", `Quick, plot_log_scale);
    ("plot single point", `Quick, plot_single_point);
  ]

(* --- Dataio --- *)

module Dataio = Utc_stats.Dataio

(* [f] on a fresh temporary file path; the file is removed afterwards. *)
let with_temp f =
  let path = Filename.temp_file "utc_dataio" ".dat" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let read_back path = In_channel.with_open_bin path In_channel.input_all

(* The written file, read back, is the gnuplot index layout: a [# label]
   line per block, one "x y" row per point, two blank lines after each. *)
let dataio_series_roundtrip () =
  with_temp (fun path ->
      Dataio.write_series ~path
        [
          { Dataio.label = "alpha=1"; points = [ (0.0, 1.0); (1.5, 2.25) ] };
          { Dataio.label = "alpha=5"; points = [ (0.0, 0.5) ] };
        ];
      Alcotest.(check string) "series text"
        "# alpha=1\n0 1\n1.5 2.25\n\n\n# alpha=5\n0 0.5\n\n\n" (read_back path))

let dataio_csv_roundtrip () =
  with_temp (fun path ->
      Dataio.write_csv ~path ~header:[ "alpha"; "rate" ] [ [ 0.9; 0.35 ]; [ 1.0; 0.3 ] ];
      Alcotest.(check string) "csv text" "alpha,rate\n0.9,0.35\n1,0.3\n" (read_back path))

let dataio_csv_ragged_rejected () =
  with_temp (fun path ->
      Alcotest.check_raises "ragged" (Invalid_argument "Dataio.write_csv: ragged row") (fun () ->
          Dataio.write_csv ~path ~header:[ "a"; "b" ] [ [ 1.0 ] ]))

let dataio_suite =
  [
    ("dataio series roundtrip", `Quick, dataio_series_roundtrip);
    ("dataio csv roundtrip", `Quick, dataio_csv_roundtrip);
    ("dataio csv ragged", `Quick, dataio_csv_ragged_rejected);
  ]

let suite = suite @ dataio_suite

(* --- Dashboard --- *)

module Dashboard = Utc_stats.Dashboard

(* A journal that fills every panel of a [utc top] frame: two flows'
   sends, ACKs and a drop, two belief updates for the sparkline, a
   recovery transition, and one line that is not JSON. *)
let dashboard_journal =
  [
    {|{"t":0,"n":0,"event":"span_begin","path":"engine.run"}|};
    {|{"t":0,"n":1,"event":"packet_send","flow":"primary","seq":0,"bits":12000}|};
    {|{"t":0.5,"n":2,"event":"packet_send","flow":"aux0","seq":0,"bits":8000}|};
    {|{"t":1,"n":3,"event":"packet_ack","flow":"primary","seq":0}|};
    {|{"t":1,"n":4,"event":"belief_update","size":64,"entropy":2.5,"ess":40.5,"status":"consistent"}|};
    {|{"t":2,"n":5,"event":"packet_drop","flow":"aux0","node":"2","reason":"tail_drop","seq":0}|};
    {|{"t":3,"n":6,"event":"belief_update","size":12,"entropy":1.25,"ess":6.75,"status":"consistent"}|};
    {|{"t":4,"n":7,"event":"recovery_transition","from":"healthy","to":"suspect","reseeds":0}|};
    "not a journal line";
    {|{"t":6,"n":8,"event":"packet_ack","flow":"primary","seq":1}|};
  ]

(* Everything above the phase-cost panel. The trailing 5 s window holds
   both primary ACKs: 2 x 12,000 bits / 5 s. *)
let dashboard_head =
  String.concat ""
    [
      "utc top — 9 journal events, t=[0.000, 6.000]s, window 5.0s\n";
      "\n";
      "flow                  sends       acks      drops   goodput(bps)\n";
      "primary                   1          2          0           4800\n";
      "aux0                      1          0          1              0\n";
      "\n";
      "belief: 12 hypotheses, ess 6.75, entropy 1.250 nats\n";
      Ascii_plot.render_one ~width:40 ~height:8 ~x_label:"t (s)" ~y_label:"entropy"
        ~label:"belief.entropy"
        [ (1.0, 2.5); (3.0, 1.25) ];
      "\n";
      "recovery: healthy -> suspect at t=4.000s (reseeds=0)\n";
    ]

(* A profiled snapshot: self wall cost is a span's wall time less its
   direct children's (engine.run: 2 - (0.25 + 0.01 + 1.5) = 0.24), and
   only the 8 costliest of its 9 spans are drawn. *)
let dashboard_wall_snapshot =
  {|{"at":6,"counters":{},"gauges":{},"histograms":{},"spans":{|}
  ^ {|"engine.run":{"calls":1,"sim_seconds":6,"wall_seconds":2,"minor_words":900,"major_words":0},|}
  ^ {|"engine.run/tcp.on_delivery":{"calls":12,"sim_seconds":0,"wall_seconds":0.25,"minor_words":40,"major_words":0},|}
  ^ {|"engine.run/tcp.on_timeout":{"calls":1,"sim_seconds":0,"wall_seconds":0.01,"minor_words":2,"major_words":0},|}
  ^ {|"engine.run/wakeup":{"calls":40,"sim_seconds":0,"wall_seconds":1.5,"minor_words":700,"major_words":0},|}
  ^ {|"engine.run/wakeup/belief.update":{"calls":40,"sim_seconds":0,"wall_seconds":0.9,"minor_words":400,"major_words":0},|}
  ^ {|"engine.run/wakeup/belief.update/expand":{"calls":40,"sim_seconds":0,"wall_seconds":0.6,"minor_words":300,"major_words":0},|}
  ^ {|"engine.run/wakeup/planner.decide":{"calls":55,"sim_seconds":0,"wall_seconds":0.4,"minor_words":200,"major_words":0},|}
  ^ {|"engine.run/wakeup/planner.decide/price":{"calls":55,"sim_seconds":0,"wall_seconds":0.3,"minor_words":150,"major_words":0},|}
  ^ {|"engine.run/wakeup/recovery.step":{"calls":3,"sim_seconds":0,"wall_seconds":0.05,"minor_words":5,"major_words":0}}}|}

(* The spans of a snapshot without profile fields (those of `utc metrics
   paper --seed 1 --duration 30 --json`): self cost falls back to sim
   time, and ties at 0 are drawn in path order. *)
let dashboard_sim_snapshot =
  {|{"at":30,"counters":{"core.isender.wakeups":31},"gauges":{},"histograms":{},"spans":{|}
  ^ {|"harness.run":{"calls":1,"sim_seconds":30},|}
  ^ {|"harness.run/engine.run":{"calls":1,"sim_seconds":30},|}
  ^ {|"harness.run/engine.run/wakeup":{"calls":31,"sim_seconds":0},|}
  ^ {|"harness.run/engine.run/wakeup/belief.update":{"calls":31,"sim_seconds":0},|}
  ^ {|"harness.run/engine.run/wakeup/belief.update/compact":{"calls":31,"sim_seconds":0},|}
  ^ {|"harness.run/engine.run/wakeup/belief.update/expand":{"calls":31,"sim_seconds":0},|}
  ^ {|"harness.run/engine.run/wakeup/planner.decide":{"calls":40,"sim_seconds":0},|}
  ^ {|"harness.run/engine.run/wakeup/planner.decide/price":{"calls":40,"sim_seconds":0}}}|}

let dashboard_frame () =
  let frame ?metrics_json () =
    Dashboard.render_frame ~width:48 ?metrics_json ~journal_lines:dashboard_journal ()
  in
  Alcotest.(check string) "journal only" dashboard_head (frame ());
  Alcotest.(check string) "wall-clock phase costs"
    (dashboard_head
    ^ String.concat "\n"
        [
          "";
          "phase costs (self wall s):";
          "  engine.run/wakeup/belief.update/expand           0.600000 ################ (40 calls)";
          "  engine.run/wakeup/belief.update                  0.300000 ######## (40 calls)";
          "  engine.run/wakeup/planner.decide/price           0.300000 ######## (55 calls)";
          "  engine.run/tcp.on_delivery                       0.250000 ####### (12 calls)";
          "  engine.run                                       0.240000 ###### (1 calls)";
          "  engine.run/wakeup                                0.150000 #### (40 calls)";
          "  engine.run/wakeup/planner.decide                 0.100000 ### (55 calls)";
          "  engine.run/wakeup/recovery.step                  0.050000 # (3 calls)";
          "";
        ])
    (frame ~metrics_json:dashboard_wall_snapshot ());
  Alcotest.(check string) "sim-time phase costs"
    (dashboard_head
    ^ String.concat "\n"
        [
          "";
          "phase costs (self sim s):";
          "  harness.run/engine.run                                 30.000000 ################ (1 calls)";
          "  harness.run                                             0.000000  (1 calls)";
          "  harness.run/engine.run/wakeup                           0.000000  (31 calls)";
          "  harness.run/engine.run/wakeup/belief.update             0.000000  (31 calls)";
          "  harness.run/engine.run/wakeup/belief.update/compact     0.000000  (31 calls)";
          "  harness.run/engine.run/wakeup/belief.update/expand      0.000000  (31 calls)";
          "  harness.run/engine.run/wakeup/planner.decide            0.000000  (40 calls)";
          "  harness.run/engine.run/wakeup/planner.decide/price      0.000000  (40 calls)";
          "";
        ])
    (frame ~metrics_json:dashboard_sim_snapshot ())

let suite = suite @ [ ("dashboard frame", `Quick, dashboard_frame) ]
