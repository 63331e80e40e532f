open Utc_net
module Tb = Utc_sim.Timebase
module Priors = Utc_inference.Priors
module Belief = Utc_inference.Belief

type config = {
  truth : Topology.t;
  prior : (Priors.fig2_params * float) list;
  alpha : float;
  kappa : float;
  cross_discounted : bool;
  latency_penalty : float;
  duration : float;
  seed : int;
  max_hyps : int;
  cap_policy : Belief.cap_policy;
  epoch : float;
  loss_mode : [ `Likelihood | `Fork ];
}

(* Candidate delays scaled to the §4 link: service times are ~1 s, the
   residual-capacity pace against a 0.7c pinger is 1/0.3c ~ 3.33 s. *)
let paper_delays = [ 0.0; 0.5; 1.0; 1.43; 2.0; 2.5; 3.33; 5.0; 8.0; 12.0; 20.0; 32.0 ]

let default =
  {
    truth = Priors.paper_truth_topology;
    prior = Priors.paper_prior ();
    alpha = 1.0;
    kappa = 60.0;
    cross_discounted = true;
    latency_penalty = 0.0;
    duration = 300.0;
    seed = 1;
    max_hyps = 20_000;
    cap_policy = `Top_k;
    epoch = 1.0;
    loss_mode = `Likelihood;
  }

type sample = {
  at : Tb.t;
  belief_size : int;
  entropy : float;
  truth_mass : float;
  m_link : float;
  m_rate : float;
  m_loss : float;
  m_buffer : float;
  m_fullness : float;
}

type result = {
  config : config;
  sent : (Tb.t * int) list;
  sent_count : int;
  delivered : int;
  tail_drops_cross : int;
  samples : sample list;
  final_posterior : (Priors.fig2_params * float) list;
  rejected_updates : int;
  wall_seconds : float;
}

let truth_cell (p : Priors.fig2_params) =
  (p.link_bps, p.pinger_pps, p.loss_rate, p.buffer_bits)

(* Run-scoped observations go through families keyed by the ambient
   sweep label: a single run resolves the unlabeled child (bare metric
   name, as before), while each run of a [run_many] sweep gets its own
   [run="<index>"] child — per-run values survive the sweep instead of
   last-writer-wins clobbering, and the snapshot stays deterministic at
   any domain count because no two runs share a child. *)
let entropy_gf = Utc_obs.Metrics.gauge_family "harness.belief.entropy"
let size_gf = Utc_obs.Metrics.gauge_family "harness.belief.size"

let run_labels () =
  match Utc_obs.Sink.run_label () with
  | None -> []
  | Some r -> [ ("run", r) ]

let run config =
  let wall_start = Utc_obs.Obs_clock.now () in
  let labels = run_labels () in
  let entropy_g = Utc_obs.Metrics.labeled entropy_gf labels in
  let size_g = Utc_obs.Metrics.labeled size_gf labels in
  let forward_config =
    {
      Utc_model.Forward.default_config with
      epoch = config.epoch;
      loss_mode = config.loss_mode;
    }
  in
  let belief =
    Belief.create ~max_hyps:config.max_hyps ~cap_policy:config.cap_policy
      (Priors.seeds ~config:forward_config config.prior)
  in
  let testbed = Testbed.create ~seed:config.seed config.truth in
  let utility =
    Utc_utility.Utility.make ~alpha:config.alpha ~kappa:config.kappa
      ~cross_discounted:config.cross_discounted ~latency_penalty:config.latency_penalty ()
  in
  let planner =
    { Utc_core.Planner.default_config with utility; delays = paper_delays }
  in
  let isender =
    Testbed.isender testbed { Utc_core.Isender.default_config with planner } ~belief
  in
  let samples = ref [] in
  let truth = truth_cell Priors.paper_truth in
  let truth_params = Priors.paper_truth in
  Utc_core.Isender.on_wakeup isender (fun now s ->
      let belief = Utc_core.Isender.belief s in
      let posterior = Belief.posterior belief in
      let entropy = Belief.posterior_entropy posterior in
      let belief_size = Belief.size belief in
      let mass_where pred =
        List.fold_left (fun acc (p, w) -> if pred p then acc +. w else acc) 0.0 posterior
      in
      Utc_obs.Metrics.set_gauge entropy_g entropy;
      Utc_obs.Metrics.set_gauge size_g (float_of_int belief_size);
      samples :=
        {
          at = now;
          belief_size;
          entropy;
          truth_mass = mass_where (fun p -> truth_cell p = truth);
          m_link = mass_where (fun p -> p.Priors.link_bps = truth_params.Priors.link_bps);
          m_rate = mass_where (fun p -> p.Priors.pinger_pps = truth_params.Priors.pinger_pps);
          m_loss = mass_where (fun p -> p.Priors.loss_rate = truth_params.Priors.loss_rate);
          m_buffer = mass_where (fun p -> p.Priors.buffer_bits = truth_params.Priors.buffer_bits);
          m_fullness = mass_where (fun p -> p.Priors.initial_packets = 0);
        }
        :: !samples);
  Utc_core.Isender.start isender;
  let span_name =
    match Utc_obs.Sink.run_label () with
    | None -> "harness.run"
    | Some r -> Printf.sprintf "harness.run{run=%S}" r
  in
  (* [~root:true]: in a sweep the caller runs its own chunk of runs inside
     whatever spans it has open, while a spawned domain starts at the
     root; re-rooting each run's span subtree at its labeled name keeps
     every recorded path — and the aggregated tree — schedule-independent. *)
  Utc_obs.Metrics.span ~name:span_name ~root:true
    ~now:(fun () -> Utc_sim.Engine.now testbed.Testbed.engine)
    (fun () -> Utc_sim.Engine.run ~until:config.duration testbed.Testbed.engine);
  let receiver = testbed.Testbed.receiver in
  let tail_drops_cross =
    List.length
      (List.filter
         (fun (_, _, r, pkt) ->
           r = Utc_elements.Runtime.Tail_drop && Flow.equal pkt.Packet.flow Flow.Cross)
         (Utc_core.Receiver.drops receiver))
  in
  {
    config;
    sent = Utc_core.Isender.sent isender;
    sent_count = Utc_core.Isender.sent_count isender;
    delivered = Utc_core.Receiver.delivered_count receiver Flow.Primary;
    tail_drops_cross;
    samples = List.rev !samples;
    final_posterior = Belief.posterior (Utc_core.Isender.belief isender);
    rejected_updates = Utc_core.Isender.rejected_updates isender;
    wall_seconds = Utc_obs.Obs_clock.elapsed_since wall_start;
  }

(* Whole runs fan across the pool, so each run journals into a private
   per-run sink created in this serial prologue; the serial epilogue
   absorbs them into the process journal in run-index order. The
   concatenated journal is therefore byte-identical at any domain
   count. The [with_run] binding rides the job closure, so it lands on
   whichever domain executes the run. *)
let run_many ?pool configs =
  let pool =
    match pool with
    | Some pool -> pool
    | None -> Utc_parallel.Pool.default ()
  in
  let capacity = Utc_obs.Sink.capacity () in
  let jobs =
    List.mapi (fun i config -> (i, config, Utc_obs.Sink.create ~capacity ())) configs
  in
  let results =
    Utc_parallel.Pool.map_list pool
      ~f:(fun (i, config, sink) ->
        Utc_obs.Sink.with_run ~run:(string_of_int i) sink (fun () -> run config))
      jobs
  in
  List.iter (fun (_, _, sink) -> Utc_obs.Sink.absorb sink) jobs;
  results

let sends_in result ~since ~until =
  List.fold_left
    (fun acc (t, _) -> if Tb.( >=. ) t since && Tb.( <. ) t until then acc + 1 else acc)
    0 result.sent
