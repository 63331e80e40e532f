type row = {
  label : string;
  sent : int;
  delivered : int;
  truth_mass : float;
  mean_hyps : float;
  max_hyps_seen : int;
  rejected : int;
  wall_seconds : float;
}

let row_of_harness ~label (result : Harness.result) =
  let samples = result.Harness.samples in
  let sizes = List.map (fun (s : Harness.sample) -> s.Harness.belief_size) samples in
  let truth_mass =
    match List.rev samples with
    | last :: _ -> last.Harness.truth_mass
    | [] -> 0.0
  in
  {
    label;
    sent = result.Harness.sent_count;
    delivered = result.Harness.delivered;
    truth_mass;
    mean_hyps =
      (match sizes with
      | [] -> 0.0
      | _ :: _ ->
        float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int (List.length sizes));
    max_hyps_seen = List.fold_left Stdlib.max 0 sizes;
    rejected = result.Harness.rejected_updates;
    wall_seconds = result.Harness.wall_seconds;
  }

let run ~label config = row_of_harness ~label (Harness.run config)

let cap_policy ?(seed = 5) ?(duration = 200.0) () =
  let base = { Harness.default with seed; duration } in
  [
    run ~label:"top-k cap 20000 (reference)" base;
    run ~label:"top-k cap 256" { base with max_hyps = 256 };
    run ~label:"resample cap 256"
      {
        base with
        max_hyps = 256;
        cap_policy = `Resample (Utc_sim.Rng.create ~seed:(seed + 1000));
      };
  ]

let epoch ?(seed = 5) ?(duration = 200.0) () =
  let base = { Harness.default with seed; duration } in
  List.map
    (fun epoch -> run ~label:(Printf.sprintf "gate epoch %.1f s" epoch) { base with epoch })
    [ 0.5; 1.0; 2.0; 5.0 ]

let pp_rows ppf rows =
  Format.fprintf ppf "%-32s %6s %6s %8s %10s %9s %5s %8s@." "variant" "sent" "dlvd"
    "P(truth)" "mean-hyps" "max-hyps" "rej" "wall(s)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-32s %6d %6d %8.3f %10.1f %9d %5d %8.2f@." r.label r.sent r.delivered
        r.truth_mass r.mean_hyps r.max_hyps_seen r.rejected r.wall_seconds)
    rows
