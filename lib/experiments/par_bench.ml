module Pool = Utc_parallel.Pool
module Belief = Utc_inference.Belief
module Priors = Utc_inference.Priors
module Forward = Utc_model.Forward
module Mstate = Utc_model.Mstate
module Obs_clock = Utc_obs.Obs_clock
open Utc_net

type entry = {
  label : string;
  work_items : int;
  serial_seconds : float;
  forced_seconds : float;
  auto_seconds : float;
  engaged : bool;
  reason : string;
  speedup : float;
  forced_speedup : float;
  bit_identical : bool;
}

type report = {
  domains : int;
  recommended_domains : int;
  entries : entry list;
  all_identical : bool;
}

let timed f =
  let start = Obs_clock.now () in
  let v = f () in
  (v, Obs_clock.elapsed_since start)

(* One workload, three schedules. The serial run both sets the reference
   fingerprint and primes the workload's cost handle (per-item cost =
   measured serial total / items), so the adaptive run decides from a
   fresh, honest estimate rather than whatever earlier callers left in
   the EWMA. The forced run always engages the pool (Fixed policy) — it
   measures what engagement costs on this machine; the auto run is the
   shipped adaptive path. [speedup] grades the auto path against serial:
   when the cost model falls back the schedules are identical by
   construction, so the speedup is pinned to exactly 1.0 instead of
   reporting timer noise; when it engages, the measured ratio stands —
   an engaged decision that fails to beat serial is a regression and
   shows up as [speedup < 1.0]. *)
let measure ~label ~cost ~work_items ~fingerprint ~serial ~forced ~auto work =
  Pool.Cost.forget cost;
  let serial_r, serial_seconds = timed (fun () -> work serial) in
  let items = work_items serial_r in
  Pool.Cost.prime cost ~per_item_ns:(serial_seconds *. 1e9 /. float_of_int (max 1 items));
  let forced_r, forced_seconds = timed (fun () -> work forced) in
  let auto_r, auto_seconds = timed (fun () -> work auto) in
  let engaged, reason =
    match Pool.Cost.last_decision cost with
    | Some d -> (d.Pool.Cost.engaged, d.Pool.Cost.reason)
    | None -> (false, "serial-shortcut")
  in
  let reference = fingerprint serial_r in
  let bit_identical = reference = fingerprint forced_r && reference = fingerprint auto_r in
  let speedup =
    if not engaged then 1.0
    else if auto_seconds > 0.0 then serial_seconds /. auto_seconds
    else 0.0
  in
  let forced_speedup = if forced_seconds > 0.0 then serial_seconds /. forced_seconds else 0.0 in
  {
    label;
    work_items = items;
    serial_seconds;
    forced_seconds;
    auto_seconds;
    engaged;
    reason;
    speedup;
    forced_speedup;
    bit_identical;
  }

(* Everything but the wall clock; the attestation compares the physics,
   not the timing. *)
let strip (r : Harness.result) = { r with Harness.wall_seconds = 0.0 }

(* The (seed, alpha) sweep of the scalability workload: independent
   whole-experiment runs fanned across the pool. *)
let sweep_entry ~serial ~forced ~auto ~seed ~duration =
  let prior = Scalability.thin 8 (Priors.paper_prior ()) in
  let configs =
    List.concat_map
      (fun seed ->
        List.map
          (fun alpha -> { Harness.default with seed; duration; alpha; prior })
          [ 0.9; 1.0; 2.5; 5.0 ])
      [ seed; seed + 1 ]
  in
  measure ~label:"harness/scalability-sweep" ~cost:Harness.run_cost
    ~work_items:(fun _ -> List.length configs)
    ~fingerprint:(List.map strip) ~serial ~forced ~auto
    (fun pool -> Harness.run_many ~pool configs)

let hyp_fingerprint (h : _ Belief.hypothesis) =
  (h.Belief.params, Int64.bits_of_float h.Belief.logw, Mstate.canonical h.Belief.state)

let belief_fingerprint belief = List.map hyp_fingerprint (Belief.support belief)

let paper_window_sends =
  List.map
    (fun (at, seq) -> (at, Packet.make ~flow:Flow.Primary ~seq ~sent_at:at ()))
    [ (0.5, 0); (2.0, 1); (3.5, 2) ]

let paper_window_acks = [ { Belief.seq = 0; time = 1.5 }; { Belief.seq = 1; time = 3.0 } ]

(* One conditioning window of the exact filter over the full paper prior:
   the per-hypothesis Forward stepping and scoring fan across the pool. *)
let belief_entry ~serial ~forced ~auto =
  measure ~label:"belief/update-paper-prior" ~cost:Belief.expand_cost
    ~work_items:(fun (belief, _) -> Belief.size belief)
    ~fingerprint:(fun (belief, status) -> (status, belief_fingerprint belief))
    ~serial ~forced ~auto
    (fun pool ->
      let belief =
        Belief.create (Priors.seeds ~config:Forward.default_config (Priors.paper_prior ()))
      in
      Belief.update ~pool belief ~sends:paper_window_sends ~acks:paper_window_acks ~now:5.0 ())

(* Planner rollouts over the heaviest hypotheses of a converged-ish
   belief. No gross-utility cache: this entry times the full sweep. *)
let planner_entry ~serial ~forced ~auto =
  let belief =
    Belief.create (Priors.seeds ~config:Forward.default_config (Priors.paper_prior ()))
  in
  let belief = Belief.advance ~pool:serial belief ~sends:[] ~now:0.5 () in
  let make_packet at = Packet.make ~flow:Flow.Primary ~seq:0 ~sent_at:at () in
  let config =
    { Utc_core.Planner.default_config with Utc_core.Planner.delays = Harness.paper_delays }
  in
  let work_items = min (Belief.size belief) config.Utc_core.Planner.top_hyps in
  measure ~label:"planner/decide-top-hyps" ~cost:Utc_core.Planner.price_cost
    ~work_items:(fun _ -> work_items)
    ~fingerprint:Fun.id ~serial ~forced ~auto
    (fun pool ->
      Utc_core.Planner.decide ~pool config ~belief ~now:0.5 ~pending:[] ~make_packet)

let run ?domains ?(seed = 7) ?(duration = 30.0) () =
  let domains =
    match domains with
    | Some n -> n
    | None -> Pool.default_domains ()
  in
  Pool.with_pool ~domains:1 (fun serial ->
      Pool.with_pool ~domains (fun forced ->
          Pool.with_pool ~policy:Pool.Adaptive ~domains (fun auto ->
              let entries =
                [
                  belief_entry ~serial ~forced ~auto;
                  planner_entry ~serial ~forced ~auto;
                  sweep_entry ~serial ~forced ~auto ~seed ~duration;
                ]
              in
              {
                domains;
                recommended_domains = Pool.recommended ();
                entries;
                all_identical = List.for_all (fun e -> e.bit_identical) entries;
              })))

(* An entry regresses when the shipped (adaptive) path is slower than
   serial, or when any schedule changed the physics. Fallback entries
   have [speedup = 1.0] by construction and never appear here. *)
let regressions report =
  List.filter (fun e -> e.speedup < 1.0 || not e.bit_identical) report.entries

let to_json report =
  let buf = Buffer.create 1024 in
  let entry e =
    Printf.sprintf
      "    {\"label\": \"%s\", \"work_items\": %d, \"serial_seconds\": %.6f, \
       \"forced_seconds\": %.6f, \"auto_seconds\": %.6f, \"engaged\": %b, \"reason\": \
       \"%s\", \"speedup\": %.3f, \"forced_speedup\": %.3f, \"bit_identical\": %b}"
      (String.escaped e.label) e.work_items e.serial_seconds e.forced_seconds e.auto_seconds
      e.engaged (String.escaped e.reason) e.speedup e.forced_speedup e.bit_identical
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"domains\": %d,\n" report.domains);
  Buffer.add_string buf
    (Printf.sprintf "  \"recommended_domains\": %d,\n" report.recommended_domains);
  Buffer.add_string buf (Printf.sprintf "  \"all_identical\": %b,\n" report.all_identical);
  Buffer.add_string buf "  \"entries\": [\n";
  Buffer.add_string buf (String.concat ",\n" (List.map entry report.entries));
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let write_json ~path report =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json report))

let pp_report ppf report =
  Format.fprintf ppf
    "Parallel execution: serial vs %d-domain wall time (machine recommends %d domains)@.@."
    report.domains report.recommended_domains;
  Format.fprintf ppf "%-28s %6s %10s %10s %10s %8s %18s %14s@." "workload" "items" "serial(s)"
    "forced(s)" "auto(s)" "speedup" "decision" "bit-identical";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-28s %6d %10.3f %10.3f %10.3f %8.2f %18s %14s@." e.label
        e.work_items e.serial_seconds e.forced_seconds e.auto_seconds e.speedup
        (if e.engaged then "engaged" else "fallback:" ^ e.reason)
        (if e.bit_identical then "EXACT" else "MISMATCH"))
    report.entries;
  Format.fprintf ppf "@.attestation: %s@."
    (if report.all_identical then
       "every pooled result is bit-identical to its serial counterpart"
     else "BIT-EQUALITY VIOLATION - pooled results diverged from serial");
  match regressions report with
  | [] -> Format.fprintf ppf "no regressions: the adaptive path never loses to serial@."
  | rs ->
    Format.fprintf ppf "REGRESSION - %d entr%s slower than serial or diverged: %s@."
      (List.length rs)
      (if List.length rs = 1 then "y" else "ies")
      (String.concat ", " (List.map (fun e -> e.label) rs))
