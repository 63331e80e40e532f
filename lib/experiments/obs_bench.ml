module Metrics = Utc_obs.Metrics
module Sink = Utc_obs.Sink
module Obs_clock = Utc_obs.Obs_clock
module Priors = Utc_inference.Priors

type report = {
  seed : int;
  duration : float;
  repeats : int;
  disabled_seconds : float;
  enabled_seconds : float;
  enabled_overhead_percent : float;
  instrumentation_calls : int;
  events_recorded : int;
  events_dropped : int;
  noop_ns : float;
  disabled_overhead_percent : float;
  counter_ns : float;
  labeled_ns : float;
  labeled_overhead_ratio : float;
  span_ns : float;
  span_alloc_words : float;
}

let timed f =
  let start = Obs_clock.now () in
  let v = f () in
  (v, Obs_clock.elapsed_since start)

let best_of n f =
  let rec go best k =
    if k = 0 then best
    else begin
      let _, seconds = timed f in
      go (Float.min best seconds) (k - 1)
    end
  in
  go Float.infinity n

(* Cost of one recording call while telemetry is disabled: a tight loop
   over the flag-test-and-return path. This is the per-call price every
   instrumented hot path pays in a production (telemetry-off) run. *)
let noop_ns () =
  assert (not (Metrics.enabled ()));
  let c = Metrics.counter "obs_bench.noop" in
  let iters = 20_000_000 in
  let (), seconds =
    timed (fun () ->
        for _ = 1 to iters do
          Metrics.incr c
        done)
  in
  seconds /. float_of_int iters *. 1e9

(* Per-call cost of an enabled increment, plain counter vs labeled
   family child. The child is resolved once (the cached-handle pattern
   every hot-path caller uses) so both loops time the same increment
   machinery; what the ratio pays for is the label indirection, and the
   acceptance bound says it must stay within 2x of the plain counter. *)
let enabled_incr_ns () =
  assert (Metrics.enabled ());
  let plain = Metrics.counter "obs_bench.plain" in
  let fam = Metrics.counter_family "obs_bench.labeled" in
  let child = Metrics.labeled fam [ ("flow", "bench") ] in
  let iters = 20_000_000 in
  let time_incr c =
    best_of 3 (fun () ->
        for _ = 1 to iters do
          Metrics.incr c
        done)
    /. float_of_int iters *. 1e9
  in
  let counter_ns = time_incr plain in
  let labeled_ns = time_incr child in
  (counter_ns, labeled_ns)

(* Per-call cost of an enabled profiler span: the path push/pop through
   domain-local state, two wall-clock reads, a [Gc.quick_stat] pair, and
   the locked accumulate. No [~now] is passed, so the loop exercises the
   aggregation path without journaling 10^6 begin/end events. The time
   bound is generous — spans wrap phases (a belief update, a planner
   decision), not single instructions — but pins the order of magnitude
   so a regression (say an accidental snapshot per entry) fails CI's
   "Telemetry overhead benchmark" step, which checks all four bounds in
   the written report. *)
let enabled_span_ns () =
  assert (Metrics.enabled ());
  let iters = 1_000_000 in
  let loop () =
    for _ = 1 to iters do
      Metrics.span ~name:"obs_bench.span" (fun () -> ())
    done
  in
  let seconds = best_of 3 loop in
  let minor0 = Gc.minor_words () in
  loop ();
  let alloc_words = (Gc.minor_words () -. minor0) /. float_of_int iters in
  (seconds /. float_of_int iters *. 1e9, alloc_words)

(* Instrumented operations performed during one enabled run, from the
   registry itself: every counter increment, histogram observation, span
   entry and journal record went through one enabled-flag guard. *)
let instrumentation_calls snapshot ~events =
  let counters = List.fold_left (fun acc (_, c) -> acc + c) 0 snapshot.Metrics.counters in
  let observations =
    List.fold_left (fun acc (_, h) -> acc + h.Metrics.hv_total) 0 snapshot.Metrics.histograms
  in
  let spans = List.fold_left (fun acc (_, s) -> acc + s.Metrics.sv_calls) 0 snapshot.Metrics.spans in
  counters + observations + spans + events

let run ?(seed = 7) ?(duration = 60.0) ?(repeats = 3) () =
  let config =
    {
      Harness.default with
      seed;
      duration;
      prior = Scalability.thin 8 (Priors.paper_prior ());
    }
  in
  let workload () = ignore (Harness.run config : Harness.result) in
  Metrics.disable ();
  Sink.disable ();
  workload () (* warmup *);
  let disabled_seconds = best_of repeats workload in
  let per_call_ns = noop_ns () in
  Metrics.enable ();
  Sink.enable ();
  Metrics.reset ();
  Sink.reset ();
  let enabled_seconds = best_of 1 workload in
  (* Snapshot the workload's registry state before the increment
     microbenchmark, whose 10^8 loop iterations would otherwise swamp
     the instrumentation-call count. *)
  let snapshot = Metrics.snapshot ~at:duration in
  let journal_length, events_dropped = Sink.stats () in
  let events_recorded = journal_length + events_dropped in
  let calls = instrumentation_calls snapshot ~events:events_recorded in
  let counter_ns, labeled_ns = enabled_incr_ns () in
  let span_ns, span_alloc_words = enabled_span_ns () in
  Metrics.disable ();
  Sink.disable ();
  Metrics.reset ();
  Sink.reset ();
  let pct num den = if den > 0.0 then 100.0 *. num /. den else 0.0 in
  {
    seed;
    duration;
    repeats;
    disabled_seconds;
    enabled_seconds;
    enabled_overhead_percent = pct (enabled_seconds -. disabled_seconds) disabled_seconds;
    instrumentation_calls = calls;
    events_recorded;
    events_dropped;
    noop_ns = per_call_ns;
    (* The disabled-sink overhead of this run: [calls] guard tests at
       [noop_ns] each, against the telemetry-off wall time. A direct
       before/after-instrumentation A/B is impossible from inside one
       build, so this per-call accounting is the honest estimate — and
       it is the number the <2% acceptance bound is checked against. *)
    disabled_overhead_percent =
      pct (float_of_int calls *. per_call_ns *. 1e-9) disabled_seconds;
    counter_ns;
    labeled_ns;
    labeled_overhead_ratio = (if counter_ns > 0.0 then labeled_ns /. counter_ns else 0.0);
    span_ns;
    span_alloc_words;
  }

let to_json r =
  Printf.sprintf
    "{\n\
    \  \"seed\": %d,\n\
    \  \"duration\": %g,\n\
    \  \"repeats\": %d,\n\
    \  \"disabled_seconds\": %.6f,\n\
    \  \"enabled_seconds\": %.6f,\n\
    \  \"enabled_overhead_percent\": %.3f,\n\
    \  \"instrumentation_calls\": %d,\n\
    \  \"events_recorded\": %d,\n\
    \  \"events_dropped\": %d,\n\
    \  \"noop_ns\": %.3f,\n\
    \  \"disabled_overhead_percent\": %.4f,\n\
    \  \"counter_ns\": %.3f,\n\
    \  \"labeled_ns\": %.3f,\n\
    \  \"labeled_overhead_ratio\": %.3f,\n\
    \  \"span_ns\": %.3f,\n\
    \  \"span_alloc_words\": %.3f\n\
     }\n"
    r.seed r.duration r.repeats r.disabled_seconds r.enabled_seconds r.enabled_overhead_percent
    r.instrumentation_calls r.events_recorded r.events_dropped r.noop_ns
    r.disabled_overhead_percent r.counter_ns r.labeled_ns r.labeled_overhead_ratio r.span_ns
    r.span_alloc_words

let write_json ~path r =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_json r))

let pp_report ppf r =
  Format.fprintf ppf "Telemetry overhead (seed %d, %gs sim, best of %d):@.@." r.seed r.duration
    r.repeats;
  Format.fprintf ppf "  telemetry off   %10.3fs wall@." r.disabled_seconds;
  Format.fprintf ppf "  telemetry on    %10.3fs wall  (+%.2f%%, %d events, %d dropped)@."
    r.enabled_seconds r.enabled_overhead_percent r.events_recorded r.events_dropped;
  Format.fprintf ppf "  disabled guard  %10.3fns/call x %d calls = %.4f%% of the off run@."
    r.noop_ns r.instrumentation_calls r.disabled_overhead_percent;
  Format.fprintf ppf "  enabled incr    %10.3fns/call plain, %.3fns/call labeled (%.2fx)@."
    r.counter_ns r.labeled_ns r.labeled_overhead_ratio;
  Format.fprintf ppf "  enabled span    %10.1fns/span, %.1f minor words/span@." r.span_ns
    r.span_alloc_words;
  Format.fprintf ppf "@.acceptance: disabled-sink overhead %s 2%% bound@."
    (if r.disabled_overhead_percent < 2.0 then "within the" else "EXCEEDS the");
  Format.fprintf ppf "acceptance: labeled-family record %s 2x unlabeled counter bound@."
    (if r.labeled_overhead_ratio <= 2.0 then "within the" else "EXCEEDS the");
  Format.fprintf ppf "acceptance: enabled span %s 10000ns bound@."
    (if r.span_ns <= 10_000.0 then "within the" else "EXCEEDS the");
  Format.fprintf ppf "acceptance: span allocation %s 512 minor words bound@."
    (if r.span_alloc_words <= 512.0 then "within the" else "EXCEEDS the")
