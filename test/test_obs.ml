(* Tests for the deterministic telemetry layer (lib/obs): registry
   semantics, journal bounds, exporters, and the cross-domain
   byte-identity the determinism contract promises. *)

module Metrics = Utc_obs.Metrics
module Sink = Utc_obs.Sink
module Event = Utc_obs.Event
module Export = Utc_obs.Export
module Profile = Utc_obs.Profile
module Pool = Utc_parallel.Pool
module Harness = Utc_experiments.Harness
module Scalability = Utc_experiments.Scalability
module Priors = Utc_inference.Priors

(* Every test leaves the process-wide registry and journal disabled and
   empty, so suites sharing the process see the seed behavior. *)
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

(* --- metrics registry --- *)

(* Registered values, read from a snapshot. *)
let counter_value name = List.assoc_opt name (Metrics.snapshot ~at:0.0).Metrics.counters
let gauge_value name = List.assoc_opt name (Metrics.snapshot ~at:0.0).Metrics.gauges

(* The names a family's label sets registered, in snapshot order. *)
let family_children family =
  let prefix = family ^ "{" in
  List.filter
    (String.starts_with ~prefix)
    (List.map fst (Metrics.snapshot ~at:0.0).Metrics.counters)

let counters_count_when_enabled () =
  with_telemetry (fun () ->
      let c = Metrics.counter "test.counter" in
      Metrics.incr c;
      Metrics.add c 4;
      Alcotest.(check (option int)) "incr + add" (Some 5) (counter_value "test.counter");
      Metrics.disable ();
      Metrics.incr c;
      Alcotest.(check (option int)) "disabled incr is a no-op" (Some 5)
        (counter_value "test.counter");
      Metrics.enable ();
      let again = Metrics.counter "test.counter" in
      Metrics.incr again;
      Alcotest.(check bool) "same name is the same counter" true (c == again);
      Alcotest.(check (option int)) "one entry counts both" (Some 6) (counter_value "test.counter"))

let gauges_hold_last_value () =
  with_telemetry (fun () ->
      let g = Metrics.gauge "test.gauge" in
      Alcotest.(check (option (float 0.0))) "unset" None (gauge_value "test.gauge");
      Metrics.set_gauge g 2.5;
      Metrics.set_gauge g 7.25;
      Alcotest.(check (option (float 0.0))) "last write wins" (Some 7.25) (gauge_value "test.gauge"))

let histogram_buckets () =
  with_telemetry (fun () ->
      (* Unsorted with a duplicate: registration sorts and dedups. *)
      let h = Metrics.histogram ~buckets:[ 100.0; 1.0; 10.0; 10.0 ] "test.histogram" in
      List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0; 500.0; 500.0 ];
      let snap = Metrics.snapshot ~at:0.0 in
      match List.assoc_opt "test.histogram" snap.Metrics.histograms with
      | None -> Alcotest.fail "histogram missing from snapshot"
      | Some hv ->
        Alcotest.(check (list (float 0.0))) "bounds sorted+deduped" [ 1.0; 10.0; 100.0 ]
          hv.Metrics.hv_bounds;
        Alcotest.(check (list int)) "per-bucket counts plus overflow" [ 1; 1; 1; 2 ]
          hv.Metrics.hv_counts;
        Alcotest.(check int) "total" 5 hv.Metrics.hv_total;
        Alcotest.(check (float 1e-9)) "sum" 1055.5 hv.Metrics.hv_sum)

let spans_accumulate () =
  with_telemetry (fun () ->
      let sim = ref 0.0 in
      let out = Metrics.span ~now:(fun () -> !sim) ~name:"test.span" (fun () -> sim := 3.0; 42) in
      Alcotest.(check int) "span returns f's result" 42 out;
      ignore (Metrics.span ~now:(fun () -> !sim) ~name:"test.span" (fun () -> sim := 5.0));
      let snap = Metrics.snapshot ~at:!sim in
      match List.assoc_opt "test.span" snap.Metrics.spans with
      | None -> Alcotest.fail "span missing from snapshot"
      | Some sv ->
        Alcotest.(check int) "two calls" 2 sv.Metrics.sv_calls;
        Alcotest.(check (float 1e-9)) "sim seconds accumulate" 5.0 sv.Metrics.sv_sim_seconds)

(* A span counts what it allocates, not the minor collections that fell
   inside it: 1,000 list cells are 3,000 words, whether or not a
   collection runs meanwhile. *)
let span_counts_minor_words () =
  with_telemetry (fun () ->
      let cells = Metrics.span ~name:"test.alloc" (fun () -> Sys.opaque_identity (List.init 1_000 Fun.id)) in
      Alcotest.(check int) "the list is built" 1_000 (List.length cells);
      let snap = Metrics.snapshot ~at:0.0 in
      match List.assoc_opt "test.alloc" snap.Metrics.spans with
      | None -> Alcotest.fail "span missing from snapshot"
      | Some sv ->
        if sv.Metrics.sv_minor_words < 3_000.0 then
          Alcotest.failf "span counted %.0f minor words for 1,000 list cells" sv.Metrics.sv_minor_words)

(* --- nested span tree --- *)

let span_paths_nest () =
  with_telemetry (fun () ->
      Metrics.span ~name:"outer" (fun () ->
          Metrics.span ~name:"inner" (fun () -> ());
          (* [~root:true] escapes the ambient stack: the pattern sweep
             runs use so a pool domain draining another whole job does
             not nest it under its own open span. *)
          Metrics.span ~root:true ~name:"rerooted" (fun () ->
              Metrics.span ~name:"child" (fun () -> ())));
      Metrics.span ~name:"outer" (fun () -> ());
      let snap = Metrics.snapshot ~at:0.0 in
      let calls path =
        match List.assoc_opt path snap.Metrics.spans with
        | Some sv -> sv.Metrics.sv_calls
        | None -> Alcotest.failf "span path %s missing" path
      in
      Alcotest.(check int) "parent path" 2 (calls "outer");
      Alcotest.(check int) "child records under its full path" 1 (calls "outer/inner");
      Alcotest.(check int) "root span ignores the ambient stack" 1 (calls "rerooted");
      Alcotest.(check int) "nesting resumes under the new root" 1 (calls "rerooted/child");
      Alcotest.(check (option Alcotest.reject)) "no bare child entry" None
        (Option.map (fun _ -> ()) (List.assoc_opt "inner" snap.Metrics.spans)))

(* Recursion yields distinct paths ("r", "r/r", ...), so cumulative
   time is not double-counted and derived self time stays within the
   cumulative total at every node — the re-entrancy regression. *)
let span_reentrancy_self_within_cumulative () =
  with_telemetry (fun () ->
      let sim = ref 0.0 in
      let now () = !sim in
      let rec recur d =
        Metrics.span ~now ~name:"r" (fun () ->
            sim := !sim +. 1.0;
            if d > 0 then recur (d - 1))
      in
      recur 2;
      let snap = Metrics.snapshot ~at:!sim in
      let sv path = List.assoc path snap.Metrics.spans in
      Alcotest.(check int) "each depth is its own path" 1 (sv "r").Metrics.sv_calls;
      Alcotest.(check (float 1e-9)) "outer call spans the whole recursion" 3.0
        (sv "r").Metrics.sv_sim_seconds;
      Alcotest.(check (float 1e-9)) "inner levels nest" 2.0 (sv "r/r").Metrics.sv_sim_seconds;
      (* [reset] zeroes but keeps entries registered by earlier tests in
         this process; restrict the tree to this test's recursion. *)
      let rspans =
        List.filter
          (fun (p, _) -> String.equal p "r" || String.starts_with ~prefix:"r/" p)
          snap.Metrics.spans
      in
      let nodes = Profile.flatten (Profile.of_spans rspans) in
      Alcotest.(check int) "three tree nodes" 3 (List.length nodes);
      List.iter
        (fun (n : Profile.node) ->
          Alcotest.(check bool)
            (Printf.sprintf "self <= cumulative at %s" n.Profile.path)
            true
            (n.Profile.self_sim <= n.Profile.sim +. 1e-9))
        nodes;
      match nodes with
      | root :: _ ->
        Alcotest.(check (float 1e-9)) "root self excludes the nested levels" 1.0
          root.Profile.self_sim
      | [] -> Alcotest.fail "profile tree empty")

let span_journal_pairs () =
  with_telemetry (fun () ->
      Sink.enable ();
      let sim = ref 0.0 in
      let now () = !sim in
      Metrics.span ~now ~name:"a" (fun () ->
          sim := 1.0;
          Metrics.span ~now ~name:"b" (fun () -> sim := 2.0));
      let shape =
        List.map
          (fun (r : Sink.recorded) ->
            match r.Sink.event with
            | Event.Span_begin { path } -> ("B " ^ path, r.Sink.at)
            | Event.Span_end { path } -> ("E " ^ path, r.Sink.at)
            | e -> (Event.kind e, r.Sink.at))
          (Sink.events ())
      in
      Alcotest.(check (list (pair string (float 0.0))))
        "begin/end pairs nest, stamped with sim time"
        [ ("B a", 0.0); ("B a/b", 1.0); ("E a/b", 2.0); ("E a", 2.0) ]
        shape)

let snapshot_is_sorted_and_profile_free () =
  with_telemetry (fun () ->
      Metrics.incr (Metrics.counter "test.zz");
      Metrics.incr (Metrics.counter "test.aa");
      ignore (Metrics.span ~name:"test.span" (fun () -> ()));
      let snap = Metrics.snapshot ~at:1.5 in
      (* Instrumentation sites across the tree register at module init, so
         the registry holds more than this test's entries; what matters is
         the deterministic order. *)
      let names = List.map fst snap.Metrics.counters in
      Alcotest.(check (list string)) "counters sorted by name"
        (List.sort String.compare names) names;
      Alcotest.(check bool) "this test's counters are present" true
        (List.mem "test.aa" names && List.mem "test.zz" names);
      let json = Metrics.snapshot_json ~profile:false snap in
      let contains needle hay =
        let n = String.length needle in
        let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "snapshot json carries the sim-time key" true
        (contains "\"at\":1.5" json);
      Alcotest.(check bool) "~profile:false drops wall-clock fields" false
        (contains "wall" json);
      Alcotest.(check bool) "~profile:false drops allocation fields" false
        (contains "minor" json || contains "major" json);
      let profiled = Metrics.snapshot_json ~profile:true snap in
      Alcotest.(check bool) "~profile:true keeps wall and allocation fields" true
        (contains "wall_seconds" profiled && contains "minor_words" profiled))

(* --- event sink --- *)

let sink_records_in_order () =
  with_telemetry (fun () ->
      Sink.enable ();
      Sink.record ~at:1.0 (Event.Mark { name = "a"; value = 1.0 });
      Sink.record ~at:2.0 (Event.Mark { name = "b"; value = 2.0 });
      Alcotest.(check int) "two events" 2 (fst (Sink.stats ()));
      (match Sink.events () with
      | [ a; b ] ->
        Alcotest.(check int) "sequence numbers" 0 a.Sink.seq;
        Alcotest.(check int) "sequence numbers" 1 b.Sink.seq;
        Alcotest.(check (float 0.0)) "oldest first" 1.0 a.Sink.at
      | es -> Alcotest.failf "expected 2 events, got %d" (List.length es));
      Sink.disable ();
      Sink.record ~at:3.0 (Event.Mark { name = "c"; value = 3.0 });
      Alcotest.(check int) "disabled record is a no-op" 2 (fst (Sink.stats ())))

let sink_ring_drops_oldest () =
  with_telemetry (fun () ->
      Sink.enable ~capacity:4 ();
      for i = 0 to 9 do
        Sink.record ~at:(float_of_int i) (Event.Timeout { seq = i })
      done;
      Alcotest.(check (pair int int)) "bounded length and drop count" (4, 6) (Sink.stats ());
      Alcotest.(check (list int)) "newest survive, sequence numbering global" [ 6; 7; 8; 9 ]
        (List.map (fun (r : Sink.recorded) -> r.Sink.seq) (Sink.events ()));
      Sink.enable ~capacity:2 ();
      Alcotest.(check (pair int int)) "shrinking the capacity drops the oldest at once" (2, 8)
        (Sink.stats ());
      Sink.record ~at:10.0 (Event.Timeout { seq = 10 });
      Alcotest.(check (pair int int)) "then one drop per record" (2, 9) (Sink.stats ());
      Alcotest.(check (list int)) "newest survive the shrink" [ 9; 10 ]
        (List.map (fun (r : Sink.recorded) -> r.Sink.seq) (Sink.events ()));
      Alcotest.check_raises "capacity must be positive"
        (Invalid_argument "Sink.enable: capacity must be positive") (fun () ->
          Sink.enable ~capacity:0 ()))

(* --- per-run sinks --- *)

let mark_name (r : Sink.recorded) =
  match r.Sink.event with
  | Event.Mark { name; _ } -> name
  | e -> Event.kind e

let per_run_sinks () =
  with_telemetry (fun () ->
      Sink.enable ();
      Sink.record ~at:0.0 (Event.Mark { name = "global-before"; value = 0.0 });
      let a = Sink.create () in
      let b = Sink.create () in
      Alcotest.(check (option string)) "no ambient run label" None (Sink.run_label ());
      Sink.with_run ~run:"0" a (fun () ->
          Alcotest.(check (option string)) "run label visible inside" (Some "0")
            (Sink.run_label ());
          Sink.record ~at:1.0 (Event.Mark { name = "a1"; value = 1.0 }));
      Sink.with_run ~run:"1" b (fun () ->
          Sink.record ~flow:"aux0" ~at:2.0 (Event.Mark { name = "b1"; value = 2.0 }));
      Sink.with_run ~run:"0" a (fun () ->
          Sink.record ~at:3.0 (Event.Mark { name = "a2"; value = 3.0 }));
      Alcotest.(check (option string)) "run label restored" None (Sink.run_label ());
      Alcotest.(check int) "private records stay out of the journal" 1 (fst (Sink.stats ()));
      Sink.absorb a;
      Alcotest.(check (pair int int)) "the handle held both its records" (3, 0) (Sink.stats ());
      Sink.absorb b;
      let events = Sink.events () in
      Alcotest.(check (list string)) "concatenated in absorb order"
        [ "global-before"; "a1"; "a2"; "b1" ]
        (List.map mark_name events);
      Alcotest.(check (list int)) "sequence numbers reassigned globally" [ 0; 1; 2; 3 ]
        (List.map (fun (r : Sink.recorded) -> r.Sink.seq) events);
      (match List.rev events with
      | last :: _ ->
        Alcotest.(check (option string)) "flow survives absorption" (Some "aux0") last.Sink.flow
      | [] -> Alcotest.fail "journal empty");
      Sink.absorb a;
      Alcotest.(check (pair int int)) "absorbed handle is left empty" (4, 0) (Sink.stats ()))

(* --- labeled metric families --- *)

let family_resolution () =
  with_telemetry (fun () ->
      let fam = Metrics.counter_family "test.family.requests" in
      let c1 = Metrics.labeled fam [ ("run", "1"); ("flow", "primary") ] in
      let c2 = Metrics.labeled fam [ ("flow", "primary"); ("run", "1") ] in
      Metrics.incr c1;
      Metrics.incr c2;
      Alcotest.(check bool) "label order is canonicalized to one child" true (c1 == c2);
      Alcotest.(check (list string)) "one child registered, its rendered name sorting keys"
        [ "test.family.requests{flow=\"primary\",run=\"1\"}" ]
        (family_children "test.family.requests");
      let bare = Metrics.labeled fam [] in
      Metrics.add bare 3;
      Alcotest.(check bool) "empty label set is the plain counter" true
        (bare == Metrics.counter "test.family.requests");
      let snap = Metrics.snapshot ~at:0.0 in
      Alcotest.(check (option int)) "child appears under its rendered name" (Some 2)
        (List.assoc_opt "test.family.requests{flow=\"primary\",run=\"1\"}" snap.Metrics.counters);
      Alcotest.(check (option int)) "and the plain counter under the family name" (Some 3)
        (List.assoc_opt "test.family.requests" snap.Metrics.counters);
      let names = List.map fst snap.Metrics.counters in
      Alcotest.(check (list string)) "family children keep the snapshot name-sorted"
        (List.sort String.compare names) names;
      Alcotest.check_raises "duplicate label keys rejected"
        (Invalid_argument "Metrics: duplicate label key \"run\" in family test.family.requests")
        (fun () -> ignore (Metrics.labeled fam [ ("run", "1"); ("run", "2") ]));
      Alcotest.check_raises "malformed label keys rejected"
        (Invalid_argument "Metrics: invalid label key \"bad key\" in family test.family.requests")
        (fun () -> ignore (Metrics.labeled fam [ ("bad key", "v") ])))

let family_cardinality_cap () =
  with_telemetry (fun () ->
      let overflows () = counter_value "utc_obs_family_overflow" in
      let base = Option.value ~default:0 (overflows ()) in
      let fam = Metrics.counter_family ~max_children:2 "test.family.capped" in
      let a = Metrics.labeled fam [ ("flow", "a") ] in
      let b = Metrics.labeled fam [ ("flow", "b") ] in
      let c = Metrics.labeled fam [ ("flow", "c") ] in
      let d = Metrics.labeled fam [ ("flow", "d") ] in
      Alcotest.(check (list string)) "the cap's two children, then the reserved one"
        [ "test.family.capped{flow=\"a\"}"; "test.family.capped{flow=\"b\"}";
          "test.family.capped{other=\"true\"}" ]
        (family_children "test.family.capped");
      Alcotest.(check (option int)) "each over-cap resolution is counted" (Some (base + 2))
        (overflows ());
      Alcotest.(check bool) "all overflow traffic shares one child" true (c == d);
      Metrics.incr a;
      Metrics.incr b;
      Metrics.incr c;
      Metrics.incr d;
      Alcotest.(check (option int)) "the other child aggregates" (Some 2)
        (counter_value "test.family.capped{other=\"true\"}");
      Alcotest.(check bool) "known children still resolve after the cap" true
        (a == Metrics.labeled fam [ ("flow", "a") ]);
      Alcotest.(check (option int)) "known children do not count as overflow" (Some (base + 2))
        (overflows ());
      Alcotest.check_raises "cap must be positive"
        (Invalid_argument "Metrics: max_children must be positive") (fun () ->
          ignore (Metrics.counter_family ~max_children:0 "test.family.bad")))

(* --- exporters --- *)

let jsonl_shape () =
  let r =
    {
      Sink.at = 1.5;
      seq = 7;
      flow = Some "primary";
      run = None;
      event = Event.Packet_send { seq = 3; bits = 8000 };
    }
  in
  Alcotest.(check string) "jsonl line"
    "{\"t\":1.5,\"n\":7,\"event\":\"packet_send\",\"flow\":\"primary\",\"seq\":3,\"bits\":8000}"
    (Export.jsonl_line r);
  Alcotest.(check string) "no flow field on unattributed records"
    "{\"t\":1.5,\"n\":7,\"event\":\"packet_send\",\"seq\":3,\"bits\":8000}"
    (Export.jsonl_line { r with Sink.flow = None });
  Alcotest.(check string) "run label rendered when present"
    "{\"t\":1.5,\"n\":7,\"event\":\"packet_send\",\"flow\":\"primary\",\"run\":\"2\",\"seq\":3,\"bits\":8000}"
    (Export.jsonl_line { r with Sink.run = Some "2" });
  Alcotest.(check string) "jsonl is newline-terminated" (Export.jsonl_line r ^ "\n")
    (Export.render Export.Jsonl [ r ])

let contains needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let chrome_shape () =
  let records =
    [
      { Sink.at = 0.5; seq = 0; flow = None; run = None; event = Event.Timeout { seq = 1 } };
      {
        Sink.at = 1.0;
        seq = 1;
        flow = Some "primary";
        run = None;
        event = Event.Packet_ack { seq = 1 };
      };
      { Sink.at = 2.0; seq = 2; flow = Some "aux0"; run = None; event = Event.Timeout { seq = 2 } };
    ]
  in
  let out = Export.render Export.Chrome records in
  Alcotest.(check bool) "JSON array" true (out.[0] = '[');
  Alcotest.(check bool) "instant events" true (contains "\"ph\":\"i\"" out);
  Alcotest.(check bool) "microsecond timestamps" true (contains "\"ts\":500000" out);
  Alcotest.(check bool) "one tid lane per kind" true
    (contains "\"tid\":1" out && contains "\"tid\":2" out);
  Alcotest.(check bool) "one pid process per flow, first-appearance order" true
    (contains "\"pid\":2" out && contains "\"pid\":3" out);
  Alcotest.(check bool) "process_name metadata names the flows" true
    (contains "\"ph\":\"M\"" out
    && contains "{\"name\":\"sim\"}" out
    && contains "{\"name\":\"flow primary\"}" out
    && contains "{\"name\":\"flow aux0\"}" out);
  Alcotest.(check bool) "thread_name metadata names the kind lanes" true
    (contains "\"name\":\"thread_name\"" out && contains "{\"name\":\"timeout\"}" out)

(* Matched begin/end pairs become complete ("X") slices; an end whose
   begin fell off the journal ring is dropped; a begin whose end lies
   beyond the journal's horizon survives as an unterminated "B" slice —
   exactly the shapes a saturated ring produces at either edge. *)
let chrome_span_slices_and_orphans () =
  let rec_ at seq event = { Sink.at; seq; flow = None; run = None; event } in
  let out =
    Export.render Export.Chrome
      [
        rec_ 1.0 0 (Event.Span_end { path = "lost" });
        rec_ 2.0 1 (Event.Span_begin { path = "a" });
        rec_ 3.0 2 (Event.Span_begin { path = "a/b" });
        rec_ 4.0 3 (Event.Span_end { path = "a/b" });
      ]
  in
  Alcotest.(check bool) "matched pair becomes a duration slice" true
    (contains "\"name\":\"a/b\",\"ph\":\"X\",\"ts\":3000000,\"dur\":1000000" out);
  Alcotest.(check bool) "orphaned end is skipped" false (contains "lost" out);
  Alcotest.(check bool) "unterminated begin survives as B" true
    (contains "\"name\":\"a\",\"ph\":\"B\",\"ts\":2000000" out);
  Alcotest.(check bool) "spans ride the reserved tid 0 lane" true
    (contains "{\"name\":\"spans\"}" out)

let chrome_run_tracks () =
  let rec_ at seq run event = { Sink.at; seq; flow = None; run = Some run; event } in
  let out =
    Export.render Export.Chrome
      [
        rec_ 0.0 0 "0" (Event.Span_begin { path = "harness.run" });
        rec_ 1.0 1 "0" (Event.Span_end { path = "harness.run" });
        rec_ 0.0 2 "1" (Event.Span_begin { path = "harness.run" });
        rec_ 2.0 3 "1" (Event.Span_end { path = "harness.run" });
      ]
  in
  Alcotest.(check bool) "one pid per run, named by its label" true
    (contains "{\"name\":\"run 0\"}" out && contains "{\"name\":\"run 1\"}" out);
  Alcotest.(check bool) "runs get separate processes" true
    (contains "\"pid\":2" out && contains "\"pid\":3" out);
  (* Same span path, same timestamps, two runs: each run's stack is
     private, so both pairs match into their own slice. *)
  Alcotest.(check bool) "per-run slices" true
    (contains "\"ph\":\"X\",\"ts\":0,\"dur\":1000000,\"pid\":2" out
    && contains "\"ph\":\"X\",\"ts\":0,\"dur\":2000000,\"pid\":3" out)

let series_extraction () =
  let records =
    [
      {
        Sink.at = 1.0;
        seq = 0;
        flow = None;
        run = None;
        event = Event.Belief_update { size = 10; entropy = 2.0; ess = 8.0; status = "consistent" };
      };
      { Sink.at = 1.5; seq = 1; flow = None; run = None; event = Event.Timeout { seq = 4 } };
      {
        Sink.at = 2.0;
        seq = 2;
        flow = None;
        run = None;
        event = Event.Planner_decide { action = "send_now"; delay = 0.0; margin = 0.5; candidates = 4 };
      };
    ]
  in
  let series = Export.series records in
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "entropy series" [ (1.0, 2.0) ]
    (List.assoc "belief.entropy" series);
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "ess series" [ (1.0, 8.0) ]
    (List.assoc "belief.ess" series);
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "margin series" [ (2.0, 0.5) ]
    (List.assoc "planner.margin" series)

(* --- repeat-run byte identity ---

   A single harness run is serial and fans nothing out (the pool fans
   whole runs only), so there is no pool to vary; what is checked is
   that the same seed gives the same journal, deterministic snapshot and
   sim-only span tree twice in one process, with the registry and the
   sink reset in between. The pooled check is [run_many]'s, below. *)

let short_config seed =
  {
    Harness.default with
    Harness.seed;
    duration = 8.0;
    prior = Scalability.thin 32 (Priors.paper_prior ());
  }

let journal_of_run config =
  with_telemetry (fun () ->
      Sink.enable ();
      ignore (Harness.run config);
      let journal = Export.render Export.Jsonl (Sink.events ()) in
      let snap = Metrics.snapshot ~at:config.Harness.duration in
      let metrics = Metrics.snapshot_json ~profile:false snap in
      (* The rendered sim-only span tree is part of the determinism
         contract too: shape, nesting, call counts and sim time. *)
      let profile = Profile.render_text ~sim_only:true (Profile.of_spans snap.Metrics.spans) in
      (journal, metrics ^ "\n" ^ profile))

let repeat_run_identity =
  QCheck.Test.make ~name:"jsonl journal and metrics repeat byte for byte" ~count:2
    QCheck.(int_range 1 1000)
    (fun seed ->
      let config = short_config seed in
      let first_journal, first_metrics = journal_of_run config in
      let second_journal, second_metrics = journal_of_run config in
      if not (String.equal first_journal second_journal) then
        QCheck.Test.fail_reportf "journal differs between two runs (seed %d)" seed;
      if not (String.equal first_metrics second_metrics) then
        QCheck.Test.fail_reportf "metrics snapshot differs between two runs (seed %d)" seed;
      first_journal <> "")

(* --- sweep byte-identity ---

   run_many records each run into a private per-run sink and absorbs
   them in run-index order, so the concatenated journal is byte-identical
   at any pool size. Counters are atomic (exact totals); gauges,
   histograms and spans are only order-independent through their labeled
   per-run/per-flow children, so the metrics side of this property
   compares all counters plus the labeled subset of everything else. *)

let sweep_fingerprint at =
  let snap = Metrics.snapshot ~at in
  let labeled entries = List.filter (fun (n, _) -> String.contains n '{') entries in
  String.concat "\n"
    (List.map (fun (n, c) -> Printf.sprintf "c %s %d" n c) snap.Metrics.counters
    @ List.map (fun (n, v) -> Printf.sprintf "g %s %h" n v) (labeled snap.Metrics.gauges)
    @ List.map
        (fun (n, h) ->
          Printf.sprintf "h %s %d %h %s" n h.Metrics.hv_total h.Metrics.hv_sum
            (String.concat ";" (List.map string_of_int h.Metrics.hv_counts)))
        (labeled snap.Metrics.histograms)
    @ List.map
        (fun (n, s) -> Printf.sprintf "s %s %d %h" n s.Metrics.sv_calls s.Metrics.sv_sim_seconds)
        (labeled snap.Metrics.spans))

let sweep_of domains configs =
  Pool.set_default_domains domains;
  with_telemetry (fun () ->
      Sink.enable ();
      ignore (Harness.run_many configs);
      (Export.render Export.Jsonl (Sink.events ()), sweep_fingerprint 0.0))

let sweep_domain_invariance =
  QCheck.Test.make ~name:"run_many journal and labeled families are pool-size invariant"
    ~count:1
    QCheck.(int_range 1 1000)
    (fun seed ->
      let configs =
        List.map
          (fun s -> { (short_config s) with Harness.duration = 5.0 })
          [ seed; seed + 1000; seed + 2000 ]
      in
      Fun.protect
        ~finally:(fun () -> Pool.set_default_domains 1)
        (fun () ->
          let serial_journal, serial_metrics = sweep_of 1 configs in
          let pooled_journal, pooled_metrics = sweep_of 4 configs in
          if serial_journal <> pooled_journal then
            QCheck.Test.fail_reportf "sweep journal differs between 1 and 4 domains (seed %d)"
              seed;
          if serial_metrics <> pooled_metrics then
            QCheck.Test.fail_reportf
              "sweep labeled families differ between 1 and 4 domains (seed %d)" seed;
          serial_journal <> ""))

let suite =
  [
    ("counters", `Quick, counters_count_when_enabled);
    ("gauges", `Quick, gauges_hold_last_value);
    ("histogram buckets", `Quick, histogram_buckets);
    ("spans", `Quick, spans_accumulate);
    ("span minor words", `Quick, span_counts_minor_words);
    ("span paths nest", `Quick, span_paths_nest);
    ("span re-entrancy self within cumulative", `Quick, span_reentrancy_self_within_cumulative);
    ("span journal begin/end pairs", `Quick, span_journal_pairs);
    ("snapshot sorted, profile excluded", `Quick, snapshot_is_sorted_and_profile_free);
    ("sink order and disable", `Quick, sink_records_in_order);
    ("sink ring buffer", `Quick, sink_ring_drops_oldest);
    ("per-run sinks", `Quick, per_run_sinks);
    ("family label resolution", `Quick, family_resolution);
    ("family cardinality cap", `Quick, family_cardinality_cap);
    ("jsonl export", `Quick, jsonl_shape);
    ("chrome export", `Quick, chrome_shape);
    ("chrome span slices and orphans", `Quick, chrome_span_slices_and_orphans);
    ("chrome run tracks", `Quick, chrome_run_tracks);
    ("series extraction", `Quick, series_extraction);
    QCheck_alcotest.to_alcotest ~long:false repeat_run_identity;
    QCheck_alcotest.to_alcotest ~long:false sweep_domain_invariance;
  ]
