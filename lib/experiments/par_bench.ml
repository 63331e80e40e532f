module Pool = Utc_parallel.Pool
module Priors = Utc_inference.Priors
module Obs_clock = Utc_obs.Obs_clock

type entry = {
  label : string;
  work_items : int;
  serial_seconds : float;
  pooled_seconds : float;
  speedup : float;
  bit_identical : bool;
}

type report = {
  pool_domains : int;
  recommended_domains : int;
  entries : entry list;
  all_identical : bool;
}

let timed f =
  let start = Obs_clock.now () in
  let v = f () in
  (v, Obs_clock.elapsed_since start)

(* Everything but the wall clock; the attestation compares the physics,
   not the timing. *)
let strip (r : Harness.result) = { r with Harness.wall_seconds = 0.0 }

(* The (seed, alpha) sweep of the scalability workload: independent
   whole-experiment runs, timed on an explicit 1-domain pool and on
   [pool]. A 1-domain [pool] runs exactly the serial schedule, so its
   speedup is pinned to 1.0 rather than reporting timer noise. *)
let sweep_entry pool ~seed ~duration =
  let prior = Scalability.thin 8 (Priors.paper_prior ()) in
  let configs =
    List.concat_map
      (fun seed ->
        List.map
          (fun alpha -> { Harness.default with seed; duration; alpha; prior })
          [ 0.9; 1.0; 2.5; 5.0 ])
      [ seed; seed + 1 ]
  in
  let sweep pool () = List.map strip (Harness.run_many ~pool configs) in
  let serial, serial_seconds = timed (sweep (Pool.create ~domains:1 ())) in
  let pooled, pooled_seconds = timed (sweep pool) in
  let speedup =
    if Pool.domains pool = 1 then 1.0
    else if pooled_seconds > 0.0 then serial_seconds /. pooled_seconds
    else 0.0
  in
  {
    label = "harness/scalability-sweep";
    work_items = List.length configs;
    serial_seconds;
    pooled_seconds;
    speedup;
    bit_identical = serial = pooled;
  }

let run ?domains ?(seed = 7) ?(duration = 30.0) () =
  Option.iter Pool.set_default_domains domains;
  let pool = Pool.default () in
  let entries = [ sweep_entry pool ~seed ~duration ] in
  {
    pool_domains = Pool.domains pool;
    recommended_domains = Pool.recommended ();
    entries;
    all_identical = List.for_all (fun e -> e.bit_identical) entries;
  }

let regressions report =
  List.filter (fun e -> e.speedup < 1.0 || not e.bit_identical) report.entries

let to_json report =
  let buf = Buffer.create 512 in
  let entry e =
    Printf.sprintf
      "    {\"label\": \"%s\", \"work_items\": %d, \"serial_seconds\": %.6f, \
       \"pooled_seconds\": %.6f, \"speedup\": %.3f, \"bit_identical\": %b}"
      (String.escaped e.label) e.work_items e.serial_seconds e.pooled_seconds e.speedup
      e.bit_identical
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"pool_domains\": %d,\n" report.pool_domains);
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
    report.pool_domains report.recommended_domains;
  Format.fprintf ppf "%-28s %6s %10s %10s %8s %14s@." "workload" "items" "serial(s)" "pooled(s)"
    "speedup" "bit-identical";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-28s %6d %10.3f %10.3f %8.2f %14s@." e.label e.work_items
        e.serial_seconds e.pooled_seconds e.speedup
        (if e.bit_identical then "EXACT" else "MISMATCH"))
    report.entries;
  Format.fprintf ppf "@.attestation: %s@."
    (if report.all_identical then
       "every pooled result is bit-identical to its serial counterpart"
     else "BIT-EQUALITY VIOLATION - pooled results diverged from serial");
  match regressions report with
  | [] -> Format.fprintf ppf "no regressions: the pool never loses to serial@."
  | rs ->
    Format.fprintf ppf "REGRESSION - %d entr%s slower than serial or diverged: %s@."
      (List.length rs)
      (if List.length rs = 1 then "y" else "ies")
      (String.concat ", " (List.map (fun e -> e.label) rs))
