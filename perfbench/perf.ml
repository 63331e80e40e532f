(* The repository benchmark. See perfbench/README.md.

     perf.exe run --workload W --seed S --seconds T --trace 0|1 [--trace-out FILE]
     perf.exe bench --seed S --repeats R [--seconds T] [--out FILE]
     perf.exe trace --seed S [--out FILE] [--trace-dir DIR]
     perf.exe check --seed S [--write-expected]
     perf.exe compare PARENT.json CHANGE.json [--benchmark BENCHMARK.json]
     perf.exe smoke [--benchmark FILE] [--write-expected]

   [run] prints, as its last line, one JSON object with the keys
   correct, attempted, failed and metrics. Every command pins the
   process to one domain. *)

module W = Workloads
module M = Measure

(* --- metric names: the contract BENCHMARK.json repeats ------------------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("sim_s_per_wall_s", "sim-s/s");
    ("wakeup_p50_us", "us");
    ("wakeup_p99_us", "us");
    ("alloc_minor_mwords", "Mwords");
    ("run_heap_mb", "MiB");
  ]

let per_layer =
  [
    ("setup.prior_seeds_s", "s");
    ("setup.belief_create_s", "s");
    ("setup.runtime_build_s", "s");
    ("setup.mdp_solve_s", "s");
    ("isender.wakeups", "count");
    ("isender.sends", "count");
    ("isender.wakeup_busy_s", "s");
    ("planner.calls", "count");
    ("planner.busy_s", "s");
    ("planner.us_per_call_p50", "us");
    ("planner.minor_words_per_call", "words");
    ("planner.cache_lookups", "count");
    ("planner.cache_hit_ratio", "ratio");
    ("policy.calls", "count");
    ("policy.busy_s", "s");
    ("belief.updates", "count");
    ("belief.update_busy_s", "s");
    ("belief.expand_self_s", "s");
    ("belief.compact_self_s", "s");
    ("belief.update_minor_mwords", "Mwords");
    ("belief.size_mean", "count");
    ("belief.size_max", "count");
    ("belief.informative_wakeups", "count");
    ("belief.rejected_ratio", "ratio");
    ("belief.reseeds", "count");
    ("sim.events", "count");
    ("sim.ns_per_event", "ns");
    ("sim.run_wall_s", "s");
    ("runtime.inject_calls", "count");
    ("runtime.inject_busy_s", "s");
    ("tcp.on_delivery_calls", "count");
    ("tcp.on_delivery_busy_s", "s");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.major_mwords", "Mwords");
    ("obs.trace_overhead_pct", "%");
    ("trace.spans_dropped", "count");
  ]
  @ List.concat_map
      (fun (stem, _) ->
        [ ("kernel." ^ stem ^ "_ns", "ns"); ("kernel." ^ stem ^ "_words", "words") ])
      Kernels.all

(* --- process set-up --------------------------------------------------------- *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf: " ^ s);
      exit 2)
    fmt

(* On one domain minor words repeat exactly and wall time is steady; at
   two, fig3 alpha=1 took 1.40-3.83 s over 7 runs. *)
let pin () =
  (match Sys.getenv_opt "UTC_DOMAINS" with
  | None -> ()
  | Some s when String.equal (String.trim s) "1" -> ()
  | Some s -> die "UTC_DOMAINS=%s: the benchmark measures one domain; unset it or set it to 1" s);
  Utc_parallel.Pool.set_default_domains 1;
  Logs.set_level None

let env () =
  Json.Obj
    [
      ("domains", Json.Num (float_of_int (Utc_parallel.Pool.default_domains ())));
      ("nproc", Json.Num (float_of_int (Utc_parallel.Pool.recommended ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("profile", Json.Str Build_info.profile);
    ]

let workload_runs name ~seed =
  match List.assoc_opt name W.all with
  | Some runs -> runs ~seed
  | None -> die "unknown workload %S (known: %s)" name (String.concat ", " W.names)

(* --- arguments ------------------------------------------------------------------ *)

let args = List.tl (Array.to_list Sys.argv)
let flag name = List.mem name args

let opt name =
  let rec find = function
    | k :: v :: _ when String.equal k name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find args

let int_opt name ~default =
  match opt name with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s expects a whole number, got %S" name v)

let expected_dir () = Option.value (opt "--expected") ~default:"perfbench/expected"

let committed workload ~seed =
  Check.read_expected (Check.expected_file ~dir:(expected_dir ()) ~prefix:workload ~seed)

(* --- correctness bookkeeping ------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
}

let count t ~what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.printf "# FAILED: %s\n%!" what
  end

(* Each run of each pass against the committed digest for this seed,
   or, when none is committed, against the first pass. Then the first
   pass against the library entry points. *)
let check_run t workload ~seed (passes : M.pass list) =
  let first = List.hd passes in
  let reference = Option.value (committed workload ~seed) ~default:first.M.digests in
  List.iter
    (fun (p : M.pass) ->
      let bad = Check.mismatches ~reference p.M.digests in
      List.iter
        (fun (label, _) ->
          count t ~what:(label ^ ": output digest differs") (not (List.mem_assoc label bad)))
        p.M.digests)
    passes;
  List.iter
    (fun (what, ok) -> count t ~what ok)
    (Check.entry_point workload ~seed ~all_alphas:false first)

let result_line t metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (t.failed = 0));
         ("attempted", Json.Num (float_of_int t.attempted));
         ("failed", Json.Num (float_of_int t.failed));
         ("metrics", Json.Obj metrics);
       ])

let with_units names values =
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some v -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ])
      | None -> die "internal: metric %s was not measured" name)
    names

(* --- run: the end-to-end metrics ---------------------------------------------------- *)

let min_replays = 3

(* One pass's wall seconds on a 2-core x86-64 VM. A run replays the pass
   [seconds / nominal] times, so every run of a workload at a given run
   length takes its medians over the same number of replays. *)
let nominal_pass_s = [ ("fig3", 3.5); ("policy", 5.5); ("faults", 2.5); ("reno256", 1.0) ]

(* Host samples per pass (see [Measure.Host]): about one per 10 ms of
   the pass on that VM. *)
let host_samples workload = int_of_float (List.assoc workload nominal_pass_s *. 100.0)

let replays ~workload ~seconds =
  let nominal = List.assoc workload nominal_pass_s in
  max min_replays (int_of_float (Float.round (float_of_int seconds /. nominal)))

(* A host slowed by its neighbours stretches every replay; at half speed
   fig3 took 53 s for its three. So a run stops early once 1.25 x
   [seconds] have passed, after at least two replays. *)
let deadline_share = 1.25
let min_replays_late = 2

(* Set-up samples after each replay: at least two, then more until 50 ms
   of them or twenty. Spread over the run, their median is not one moment
   of the host. *)
let setup_sample_ns = 50_000_000
let max_setup_samples = 20

let timed_run ~workload ~seed ~seconds =
  let runs = workload_runs workload ~seed in
  let setups = ref [] in
  let sample_setup () =
    let rec go n spent =
      if n < 2 || (spent < setup_sample_ns && n < max_setup_samples) then begin
        let ns = M.setup_only runs in
        setups := M.seconds ns :: !setups;
        go (n + 1) (spent + ns)
      end
    in
    go 0 0
  in
  let replay () =
    let p = M.run_pass (W.probe ~traced:false ()) ~host_samples:(host_samples workload) runs in
    sample_setup ();
    p
  in
  let target = replays ~workload ~seconds in
  let deadline =
    Spans.now_ns () + int_of_float (deadline_share *. float_of_int seconds *. 1e9)
  in
  let rec more acc n =
    if n >= target || (n >= min_replays_late && Spans.now_ns () >= deadline) then List.rev acc
    else more (replay () :: acc) (n + 1)
  in
  let passes = more [] 0 in
  let first = List.hd passes in
  let t = { attempted = 0; failed = 0 } in
  check_run t workload ~seed passes;
  let p50, p99 = M.replayed_decision_quantiles passes in
  let values =
    [
      ("setup_s", Stats.median !setups);
      ("sim_s_per_wall_s", M.replayed_sim_per_wall passes);
      ("wakeup_p50_us", p50);
      ("wakeup_p99_us", p99);
      ("alloc_minor_mwords", first.M.minor_words /. 1e6);
      ("run_heap_mb", M.run_heap_mb first);
    ]
  in
  Printf.printf "# %s seed=%d: %d replays of %d runs, %d decisions each, %d set-up samples\n"
    workload seed (List.length passes) first.M.runs
    (Spans.Ibuf.length first.M.steps.M.decisions)
    (List.length !setups);
  Printf.printf "# host: %d reference kernel samples, mean slowdown %.2fx\n" !M.Host.count
    (!M.Host.factor_sum /. float_of_int !M.Host.count);
  (t, with_units end_to_end values)

(* --- run --trace 1: the per-layer metrics ------------------------------------------- *)

(* Belief time and allocation from the library's own spans. *)
let belief_spans snapshot =
  let nodes =
    Utc_obs.Profile.flatten (Utc_obs.Profile.of_spans snapshot.Utc_obs.Metrics.spans)
  in
  let sum name f =
    List.fold_left
      (fun acc (n : Utc_obs.Profile.node) -> if String.equal n.name name then acc +. f n else acc)
      0.0 nodes
  in
  ( sum "belief.update" (fun n -> n.wall),
    sum "expand" (fun n -> n.self_wall),
    sum "compact" (fun n -> n.self_wall),
    sum "belief.update" (fun n -> n.minor_words) )

let layer_values (p : W.probe) (pass : M.pass) snapshot ~gc0 ~gc1 =
  let f = float_of_int in
  let steps = pass.M.steps in
  let decisions = Spans.Ibuf.contents steps.M.decisions in
  let per a b = if b = 0 then 0.0 else a /. f b in
  let wakeups = p.W.size_n in
  let planner_ns = Spans.Ibuf.contents p.W.planner_ns in
  let planner_calls = Array.length planner_ns in
  let update_s, expand_s, compact_s, update_words = belief_spans snapshot in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name snapshot.Utc_obs.Metrics.counters)
  in
  [
    ("setup.prior_seeds_s", M.seconds p.W.setup_ns.(0));
    ("setup.belief_create_s", M.seconds p.W.setup_ns.(1));
    ("setup.runtime_build_s", M.seconds p.W.setup_ns.(2));
    ("setup.mdp_solve_s", M.seconds p.W.setup_ns.(3));
    ("isender.wakeups", f wakeups);
    ("isender.sends", f p.W.sends);
    ( "isender.wakeup_busy_s",
      if wakeups = 0 then 0.0 else M.seconds (steps.M.decision_ns + steps.M.warmup_ns) );
    ("planner.calls", f planner_calls);
    ("planner.busy_s", M.seconds (M.total planner_ns));
    ( "planner.us_per_call_p50",
      if planner_calls = 0 then 0.0 else M.quantile_us (Array.map f planner_ns) 0.5 );
    ("planner.minor_words_per_call", per p.W.planner_words planner_calls);
    ("planner.cache_lookups", f p.W.cache_lookups);
    ("planner.cache_hit_ratio", per (f p.W.cache_hits) p.W.cache_lookups);
    ("policy.calls", f p.W.policy_calls);
    ("policy.busy_s", M.seconds p.W.policy_ns);
    ("belief.updates", f (counter "inference.belief.updates"));
    ("belief.update_busy_s", update_s);
    ("belief.expand_self_s", expand_s);
    ("belief.compact_self_s", compact_s);
    ("belief.update_minor_mwords", update_words /. 1e6);
    ("belief.size_mean", per p.W.size_sum wakeups);
    ("belief.size_max", f p.W.size_max);
    ("belief.informative_wakeups", f p.W.informative);
    ("belief.rejected_ratio", per (f p.W.rejected) p.W.informative);
    ("belief.reseeds", f p.W.reseeds);
    ("sim.events", f (steps.M.other + Array.length decisions + steps.M.warmup_decisions));
    ("sim.ns_per_event", per (f steps.M.other_ns) steps.M.other);
    ("sim.run_wall_s", M.seconds (M.total pass.M.run_ns));
    ("runtime.inject_calls", f p.W.inject_calls);
    ("runtime.inject_busy_s", M.seconds p.W.inject_ns);
    ("tcp.on_delivery_calls", f p.W.tcp_calls);
    ("tcp.on_delivery_busy_s", M.seconds p.W.tcp_ns);
    ("gc.minor_collections", f (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
    ("gc.major_collections", f (gc1.Gc.major_collections - gc0.Gc.major_collections));
    ("gc.major_mwords", (gc1.Gc.major_words -. gc0.Gc.major_words) /. 1e6);
    ("trace.spans_dropped", f (Spans.dropped p.W.spans));
  ]

let traced_run ~workload ~seed ~trace_out =
  let runs = workload_runs workload ~seed in
  let host_samples = host_samples workload in
  let plain () = M.run_pass (W.probe ~traced:false ()) ~host_samples runs in
  (* The library's spans and counters are on only in traced passes. *)
  let traced_pass probe =
    Utc_obs.Metrics.reset ();
    Utc_obs.Metrics.enable ();
    let p = M.run_pass probe ~host_samples runs in
    let snapshot = Utc_obs.Metrics.snapshot ~at:0.0 in
    Utc_obs.Metrics.disable ();
    (p, snapshot)
  in
  let new_probe () = W.probe ~traced:true ~span_capacity:(1 lsl 18) () in
  let plain_a = plain () in
  let probe = new_probe () in
  let gc0 = Gc.quick_stat () in
  let traced, snapshot = traced_pass probe in
  let gc1 = Gc.quick_stat () in
  let plain_b = plain () in
  let traced_b, _ = traced_pass (new_probe ()) in
  (* Two passes each way, scaled to the host's speed, since the traced
     and untraced passes run at different moments. *)
  let overhead_pct =
    ((M.replayed_sim_per_wall [ plain_a; plain_b ] /. M.replayed_sim_per_wall [ traced; traced_b ])
    -. 1.0)
    *. 100.0
  in
  let t = { attempted = 0; failed = 0 } in
  check_run t workload ~seed [ plain_a; traced; plain_b; traced_b ];
  let kernels =
    List.concat_map
      (fun (stem, ns, words) ->
        [ ("kernel." ^ stem ^ "_ns", ns); ("kernel." ^ stem ^ "_words", words) ])
      (Kernels.measure ~quota_s:0.25)
  in
  let values =
    (("obs.trace_overhead_pct", overhead_pct) :: layer_values probe traced snapshot ~gc0 ~gc1)
    @ kernels
  in
  Printf.printf "# %s seed=%d traced: %d spans kept, %d dropped; self time by span:\n" workload
    seed (Spans.recorded probe.W.spans) (Spans.dropped probe.W.spans);
  List.iter
    (fun (name, calls, self, total) ->
      Printf.printf "#   %-22s %9d calls %10.4f s self %10.4f s total\n" name calls self total)
    (Spans.self_times probe.W.spans);
  Option.iter (fun path -> Spans.write_chrome probe.W.spans ~path) trace_out;
  (t, with_units per_layer values)

let cmd_run () =
  let workload = Option.value (opt "--workload") ~default:"" in
  let seed = int_opt "--seed" ~default:1 in
  let t, metrics =
    match int_opt "--trace" ~default:0 with
    | 0 -> timed_run ~workload ~seed ~seconds:(int_opt "--seconds" ~default:0)
    | 1 -> traced_run ~workload ~seed ~trace_out:(opt "--trace-out")
    | n -> die "--trace expects 0 or 1, got %d" n
  in
  Printf.printf "# env %s\n" (Json.to_string (env ()));
  print_endline (result_line t metrics)

(* --- bench and trace: runs in fresh processes ----------------------------------------- *)

(* Run this executable as a child and parse its last output line. *)
let child argv =
  let exe = Sys.executable_name in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: argv)) Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let rec last acc =
    match input_line ic with
    | line -> last (Some line)
    | exception End_of_file -> acc
  in
  let line = last None in
  close_in ic;
  match (snd (Unix.waitpid [] pid), line) with
  | Unix.WEXITED 0, Some line -> Json.parse line
  | _ -> die "child failed: %s" (String.concat " " argv)

let run_args ~workload ~seed rest =
  [ "run"; "--workload"; workload; "--seed"; string_of_int seed; "--expected"; expected_dir () ]
  @ rest

let set_field k v fields = (k, v) :: List.remove_assoc k fields

(* Rewrite [section] of the result file at [path], keeping its others. *)
let save path ~seed section v =
  let old = if Sys.file_exists path then Json.to_obj (Json.read_file path) else [] in
  Json.write_file path
    (Json.Obj
       (set_field section v
          (set_field "seed" (Json.Num (float_of_int seed)) (set_field "env" (env ()) old))));
  Printf.printf "wrote %s\n" path

let num k r =
  match Json.member k r with
  | Json.Null -> 0.0
  | v -> Json.to_num v

(* Add one run's result line to a workload's record of all its runs. *)
let add_run record line =
  let metrics = Json.member "metrics" record in
  let append (name, m) =
    let values = Json.to_list (Json.member "values" (Json.member name metrics)) in
    let values = Json.Arr (values @ [ Json.member "value" m ]) in
    (name, Json.Obj [ ("unit", Json.member "unit" m); ("values", values) ])
  in
  Json.Obj
    [
      ("attempted", Json.Num (num "attempted" record +. num "attempted" line));
      ("failed", Json.Num (num "failed" record +. num "failed" line));
      ("metrics", Json.Obj (List.map append (Json.to_obj (Json.member "metrics" line))));
    ]

let values_of m = List.map Json.to_num (Json.to_list (Json.member "values" m))

let print_table records =
  Printf.printf "%-9s %-20s %-8s %14s %14s %14s %4s\n" "workload" "metric" "unit" "median" "q1"
    "q3" "n";
  List.iter
    (fun (workload, record) ->
      List.iter
        (fun (name, m) ->
          let vs = values_of m in
          let q1, med, q3 = Stats.quartiles vs in
          Printf.printf "%-9s %-20s %-8s %14.6g %14.6g %14.6g %4d\n" workload name
            (Json.to_str (Json.member "unit" m))
            med q1 q3 (List.length vs))
        (Json.to_obj (Json.member "metrics" record));
      let failed = num "failed" record and attempted = num "attempted" record in
      Printf.printf "%-9s %-20s %-8s %14.6g   (%g of %g runs)\n" workload "failed_run_ratio"
        "ratio" (failed /. attempted) failed attempted)
    records

(* Repeats in fresh processes, the workloads in turn so the host's drift
   over the repeats hits all four alike. With [--out], repeats are added to the
   file's earlier ones, so parent and change can be run alternately. *)
let cmd_bench () =
  let seed = int_opt "--seed" ~default:1 in
  let repeats = int_opt "--repeats" ~default:5 in
  let seconds = string_of_int (int_opt "--seconds" ~default:15) in
  let out = opt "--out" in
  let records =
    ref
      (match out with
      | Some path when Sys.file_exists path ->
        Json.to_obj (Json.member "bench" (Json.read_file path))
      | Some _ | None -> [])
  in
  for r = 1 to repeats do
    List.iter
      (fun w ->
        Printf.printf "repeat %d/%d %s\n%!" r repeats w;
        let line = child (run_args ~workload:w ~seed [ "--seconds"; seconds; "--trace"; "0" ]) in
        let record = Option.value (List.assoc_opt w !records) ~default:(Json.Obj []) in
        records := set_field w (add_run record line) !records)
      W.names
  done;
  let records = List.map (fun w -> (w, List.assoc w !records)) W.names in
  print_table records;
  Option.iter (fun path -> save path ~seed "bench" (Json.Obj records)) out

(* Why each workload was chosen, restated as checks on its trace. *)
let confirmations workload m =
  let v name = Json.to_num (Json.member "value" (Json.member name m)) in
  let share a b = if v b > 0.0 then v a /. v b else 0.0 in
  match workload with
  | "fig3" ->
    let s = share "planner.busy_s" "isender.wakeup_busy_s" in
    [ (Printf.sprintf "planner is %.0f%% of wakeup time (>= 70%%)" (100.0 *. s), s >= 0.70) ]
  | "policy" ->
    let s = share "belief.update_busy_s" "sim.run_wall_s" in
    [
      (Printf.sprintf "belief.update is %.0f%% of run wall (>= 80%%)" (100.0 *. s), s >= 0.80);
      (Printf.sprintf "%g planner calls (0)" (v "planner.calls"), v "planner.calls" = 0.0);
    ]
  | "faults" ->
    [
      ( Printf.sprintf "%g wakeups (>= 100,000)" (v "isender.wakeups"),
        v "isender.wakeups" >= 100_000.0 );
    ]
  | _ ->
    [
      ( Printf.sprintf "%g wakeups and %g belief updates (0 and 0)" (v "isender.wakeups")
          (v "belief.updates"),
        v "isender.wakeups" = 0.0 && v "belief.updates" = 0.0 );
    ]

let cmd_trace () =
  let seed = int_opt "--seed" ~default:1 in
  let ok = ref true in
  let trace =
    List.map
      (fun w ->
        Printf.printf "trace %s\n%!" w;
        let trace_out =
          match opt "--trace-dir" with
          | Some d ->
            [ "--trace-out"; Filename.concat d (Printf.sprintf "trace-%s-seed%d.json" w seed) ]
          | None -> []
        in
        let line = child (run_args ~workload:w ~seed ([ "--trace"; "1" ] @ trace_out)) in
        let m = Json.member "metrics" line in
        List.iter
          (fun (name, mv) ->
            Printf.printf "  %-30s %16.6g %s\n" name
              (Json.to_num (Json.member "value" mv))
              (Json.to_str (Json.member "unit" mv)))
          (Json.to_obj m);
        List.iter
          (fun (what, pass) ->
            if not pass then ok := false;
            Printf.printf "  %s: %s\n" (if pass then "confirmed" else "NOT CONFIRMED") what)
          (confirmations w m);
        if num "failed" line > 0.0 then ok := false;
        (w, line))
      W.names
  in
  Option.iter (fun path -> save path ~seed "trace" (Json.Obj trace)) (opt "--out");
  if not !ok then exit 1

(* --- check ------------------------------------------------------------------------------ *)

let cmd_check () =
  let seed = int_opt "--seed" ~default:1 in
  let t = { attempted = 0; failed = 0 } in
  let report ~what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    count t ~what ok
  in
  List.iter
    (fun w ->
      let runs = workload_runs w ~seed in
      let host_samples = host_samples w in
      let a = M.run_pass (W.probe ~traced:false ()) ~host_samples runs in
      let b = M.run_pass (W.probe ~traced:false ()) ~host_samples runs in
      List.iter (fun (what, ok) -> report ~what ok) (Check.entry_point w ~seed ~all_alphas:true a);
      report
        ~what:(Printf.sprintf "%s seed=%d: two passes give the same %d digests" w seed a.M.runs)
        (List.is_empty (Check.mismatches ~reference:a.M.digests b.M.digests));
      let path = Check.expected_file ~dir:(expected_dir ()) ~prefix:w ~seed in
      if flag "--write-expected" then begin
        Check.write_expected path a.M.digests;
        Printf.printf "wrote %s\n" path
      end
      else
        match Check.read_expected path with
        | None -> Printf.printf "(no committed digests for %s seed=%d)\n" w seed
        | Some reference ->
          report
            ~what:(Printf.sprintf "%s seed=%d: digests = %s" w seed path)
            (List.is_empty (Check.mismatches ~reference a.M.digests)
            && List.length reference = a.M.runs))
    W.names;
  Printf.printf "%d checks, %d failed\n" t.attempted t.failed;
  if t.failed > 0 then exit 1

(* --- compare ----------------------------------------------------------------------------- *)

(* The verdict rules of the choosing-metrics guide: at least ten pairs; a
   gain needs wins in nine of ten pairs and a median gap wider than the
   parent's quartile spread; a spread wider than the bound leaves the row
   unresolved unless every change run beats every parent run. Pairs are
   the i-th runs of each side, so alternate the sides when collecting. *)
let verdict ~bound ~lower parent change =
  let better a b = if lower then a < b else a > b in
  let pairs = min (List.length parent) (List.length change) in
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let wins =
    List.length (List.filter (fun (p, c) -> better c p) (List.combine (take parent) (take change)))
  in
  let q1p, mp, q3p = Stats.quartiles parent and q1c, mc, q3c = Stats.quartiles change in
  let spread = Float.max ((q3p -. q1p) /. Float.abs mp) ((q3c -. q1c) /. Float.abs mc) in
  let all_beat = List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change in
  let worsening = (if lower then mc -. mp else mp -. mc) /. Float.abs mp in
  if pairs < 10 then "unresolved (fewer than 10 pairs)"
  else if spread > bound && not all_beat then "unresolved (spread wider than bound)"
  else if 10 * wins >= 9 * pairs && Float.abs (mc -. mp) > q3p -. q1p && better mc mp then
    "improved"
  else if worsening > bound then "regressed"
  else "no worse"

let cmd_compare () =
  let parent_path, change_path =
    match args with
    | [ _; a; b ] | [ _; a; b; "--benchmark"; _ ] -> (a, b)
    | _ -> die "usage: perf.exe compare PARENT.json CHANGE.json [--benchmark BENCHMARK.json]"
  in
  let spec = Json.read_file (Option.value (opt "--benchmark") ~default:"BENCHMARK.json") in
  let parent = Json.member "bench" (Json.read_file parent_path) in
  let change = Json.member "bench" (Json.read_file change_path) in
  let bad = ref false in
  Printf.printf "%-9s %-20s %12s %25s %12s %25s  %s\n" "workload" "metric" "parent" "(q1..q3)"
    "change" "(q1..q3)" "verdict";
  List.iter
    (fun w ->
      let pr = Json.member w parent and cr = Json.member w change in
      List.iter
        (fun m ->
          let name = Json.to_str (Json.member "name" m) in
          let values r = values_of (Json.member name (Json.member "metrics" r)) in
          match (values pr, values cr) with
          | [], _ | _, [] -> Printf.printf "%-9s %-20s missing\n" w name
          | pv, cv ->
            let lower = String.equal (Json.to_str (Json.member "better" m)) "lower" in
            let v = verdict ~bound:(Json.to_num (Json.member "bound" m)) ~lower pv cv in
            if String.equal v "regressed" then bad := true;
            let q1p, mp, q3p = Stats.quartiles pv and q1c, mc, q3c = Stats.quartiles cv in
            Printf.printf "%-9s %-20s %12.6g (%11.6g..%11.6g) %12.6g (%11.6g..%11.6g)  %s\n" w
              name mp q1p q3p mc q1c q3c v)
        (Json.to_list (Json.member "end_to_end" spec));
      let ratio r = if num "attempted" r > 0.0 then num "failed" r /. num "attempted" r else 0.0 in
      if ratio cr > ratio pr then begin
        bad := true;
        Printf.printf "%-9s failed_run_ratio rose: %g -> %g\n" w (ratio pr) (ratio cr)
      end)
    W.names;
  if !bad then exit 1

(* --- smoke: the test-suite guard ------------------------------------------------------------ *)

let cmd_smoke () =
  let benchmark = Option.value (opt "--benchmark") ~default:"BENCHMARK.json" in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun (w, runs) ->
      let runs = runs ~seed:1 in
      let host_samples = host_samples w in
      let a = M.run_pass (W.probe ~traced:false ()) ~host_samples runs in
      let b = M.run_pass (W.probe ~traced:true ~span_capacity:4096 ()) ~host_samples runs in
      if not (List.is_empty (Check.mismatches ~reference:a.M.digests b.M.digests)) then
        fail "%s: traced and untraced passes differ" w;
      let path = Check.expected_file ~dir:(expected_dir ()) ~prefix:("smoke-" ^ w) ~seed:1 in
      if flag "--write-expected" then Check.write_expected path a.M.digests
      else
        match Check.read_expected path with
        | Some reference when List.is_empty (Check.mismatches ~reference a.M.digests) -> ()
        | Some _ | None -> fail "%s: digests differ from %s" w path)
    W.smoke;
  let spec = Json.read_file benchmark in
  let entries key = Json.to_list (Json.member key spec) in
  let sorted l = List.sort String.compare l in
  let names key = sorted (List.map (fun m -> Json.to_str (Json.member "name" m)) (entries key)) in
  List.iter
    (fun (key, ours) ->
      if not (List.equal String.equal (names key) (sorted ours)) then
        fail "%s: %s differ from perf.exe's" benchmark key)
    [
      ("workloads", W.names);
      ("end_to_end", List.map fst end_to_end);
      ("per_layer", List.map fst per_layer);
    ];
  List.iter
    (fun m ->
      let name = Json.to_str (Json.member "name" m) in
      let unit_ = Json.to_str (Json.member "unit" m) in
      match List.assoc_opt name (end_to_end @ per_layer) with
      | Some u when String.equal u unit_ -> ()
      | Some _ | None -> fail "%s: %s has unit %s, perf.exe prints another" benchmark name unit_)
    (entries "end_to_end" @ entries "per_layer");
  match !failures with
  | [] -> print_endline "perf smoke: ok"
  | fs ->
    List.iter (fun f -> prerr_endline ("perf smoke: " ^ f)) (List.rev fs);
    exit 1

let () =
  pin ();
  match args with
  | "run" :: _ -> cmd_run ()
  | "bench" :: _ -> cmd_bench ()
  | "trace" :: _ -> cmd_trace ()
  | "check" :: _ -> cmd_check ()
  | "compare" :: _ -> cmd_compare ()
  | "smoke" :: _ -> cmd_smoke ()
  | _ -> die "usage: perf.exe run|bench|trace|check|compare|smoke (see perfbench/README.md)"
