(* Correctness: the workload copies against the library entry points
   they stand for, and pass digests against committed ones. *)

module W = Workloads
module E = Utc_experiments

(* What the library entry point reports for some runs of a pass at
   [seed], as (run label, key text) in the form [Workloads] renders the
   same runs' keys. Entry points run at the workload's own parameters,
   so the timed runs themselves are what gets checked. [all_alphas:false]
   keeps fig3 to alpha = 1, the cost one timed run can afford. *)
let library workload ~seed ~all_alphas =
  match workload with
  | "fig3" ->
    List.map
      (fun alpha ->
        let r =
          E.Harness.run
            {
              E.Harness.default with
              prior = W.fig3_prior ();
              alpha;
              seed;
              duration = W.fig3_duration;
            }
        in
        ( W.fig3_label ~alpha ~seed,
          W.fig3_key_text ~sent:r.E.Harness.sent ~cross_drops:r.E.Harness.tail_drops_cross ))
      (if all_alphas then E.Fig3_alpha.paper_alphas else [ 1.0 ])
  | "policy" ->
    let c =
      E.Policy_bridge.compare_on_fig3 ~seed ~duration:W.policy_duration ~alpha:W.policy_alpha ()
    in
    [
      ( W.policy_label ~seed,
        W.policy_key_text ~sent:c.E.Policy_bridge.policy_sent
          ~goodput:c.E.Policy_bridge.policy_goodput_bps
          ~cross_drops:c.E.Policy_bridge.policy_cross_drops );
    ]
  | "faults" ->
    List.concat_map
      (fun (s : E.Ext_faults.scenario) ->
        List.map
          (fun (r : E.Ext_faults.run) ->
            ( W.faults_label ~name:s.E.Ext_faults.name ~variant:r.E.Ext_faults.variant ~seed,
              W.render_fault_record r ))
          s.E.Ext_faults.runs)
      (E.Ext_faults.run_all ~seed ~duration:W.faults_duration ())
  | "reno256" ->
    let m = E.Versus.many_senders ~seed ~duration:W.reno_duration ~senders:W.reno_senders () in
    [
      ( W.reno_label ~senders:W.reno_senders ~seed,
        W.reno_key
          (List.map
             (fun (r : E.Versus.flow_row) ->
               {
                 W.sent = r.E.Versus.f_sent;
                 delivered = r.E.Versus.f_delivered;
                 throughput = r.E.Versus.f_throughput_bps;
                 mean_rtt = r.E.Versus.f_mean_rtt;
                 queue_drops = r.E.Versus.f_queue_drops;
               })
             m.E.Versus.rows) );
    ]
  | other -> invalid_arg ("Check.library: unknown workload " ^ other)

(* One (description, passed) per library run, against the pass's keys. *)
let entry_point workload ~seed ~all_alphas (pass : Measure.pass) =
  List.map
    (fun (label, key) ->
      ( label ^ ": outputs = library entry point",
        match List.assoc_opt label pass.Measure.keys with
        | Some k -> String.equal k (Measure.digest key)
        | None -> false ))
    (library workload ~seed ~all_alphas)

(* --- committed digests ----------------------------------------------------- *)

let expected_file ~dir ~prefix ~seed =
  Filename.concat dir (Printf.sprintf "%s-seed%d.txt" prefix seed)

(* Lines "DIGEST LABEL". *)
let read_expected path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let rec lines acc =
      match input_line ic with
      | line -> (
        match String.index_opt line ' ' with
        | Some i ->
          let label = String.sub line (i + 1) (String.length line - i - 1) in
          lines ((label, String.sub line 0 i) :: acc)
        | None -> lines acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    Some (lines [])
  end

let write_expected path digests =
  let oc = open_out path in
  List.iter (fun (label, digest) -> Printf.fprintf oc "%s %s\n" digest label) digests;
  close_out oc

(* Runs whose digest differs from [reference] (matched by label). *)
let mismatches ~reference digests =
  List.filter
    (fun (label, digest) ->
      match List.assoc_opt label reference with
      | Some d -> not (String.equal d digest)
      | None -> true)
    digests
