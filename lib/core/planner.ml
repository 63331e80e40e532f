module Forward = Utc_model.Forward
module Belief = Utc_inference.Belief
module Utility = Utc_utility.Utility

type config = {
  delays : float list;
  horizon : float;
  utility : Utility.config;
}

let default_config =
  {
    delays = [ 0.0; 0.25; 0.5; 1.0; 1.5; 2.0; 3.0; 5.0; 8.0; 12.0; 20.0; 32.0 ];
    horizon = 15.0;
    utility = Utility.default;
  }

let top_hyps = 64

(* The tie band, relative to the best net utility. *)
let tie_epsilon = 1e-3

type decision =
  | Send_now
  | Sleep of float

type evaluation = {
  delay : float;
  net_utility : float;
}

(* Content-keyed gross-utility memo. A strategy's gross utility is a
   deterministic function of (hypothesis params, model state, send list,
   now, horizon end); when consecutive decisions share a rollout — the
   burst loop re-prices last round's candidate-0 send list as this
   round's baseline, against unchanged hypothesis states and the same
   wakeup time — the cache turns the repeated sweep into an incremental
   recombination of already-priced per-hypothesis contributions under
   the new pending list. Keys are exact byte encodings, never rounded,
   so a hit returns bit-identical utility to a fresh rollout.

   Traffic is deliberately asymmetric: only the baseline is ever looked
   up, and only the baseline and candidate 0 are ever stored. Within a
   wakeup the packet sequence numbers of candidates advance every
   iteration, so candidates 1..n can never be re-requested — keying all
   of them would hash the (params, state) encoding once per rollout for
   lookups that cannot hit, which costs more than the sweep saves.

   Only hypotheses whose baseline forks use the cache: the others are
   priced off one traced baseline (see [gross_utilities]), which is cheaper
   than a lookup's digest. *)
type cache = {
  table : (string, float) Hashtbl.t;
  lock : Mutex.t;  (* a caller may share one cache across domains *)
  capacity : int;
  mutable hits : int;
  mutable misses : int;
}

let make_cache ?(capacity = 8192) () =
  if capacity < 1 then invalid_arg "Planner.make_cache: capacity must be >= 1";
  { table = Hashtbl.create 256; lock = Mutex.create (); capacity; hits = 0; misses = 0 }

let cache_stats c =
  Mutex.lock c.lock;
  let stats = (c.hits, c.misses) in
  Mutex.unlock c.lock;
  stats

let add_float buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)

(* Shared key prefix for every strategy priced against one hypothesis in
   one decision — parameters, exact model state, decision time, horizon —
   collapsed to a 16-byte digest so per-strategy keys stay short however
   large the marshaled state is. Computed once per forking hypothesis
   per decision. *)
let hyp_digest ~now ~t_end (hyp : _ Belief.hypothesis) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Marshal.to_string hyp.Belief.params []);
  Buffer.add_char buf '|';
  Buffer.add_string buf (Utc_model.Mstate.canonical hyp.Belief.state);
  add_float buf now;
  add_float buf t_end;
  Digest.string (Buffer.contents buf)

let strategy_key ~digest sends =
  let buf = Buffer.create (String.length digest + 40) in
  Buffer.add_string buf digest;
  List.iter
    (fun (at, (p : Utc_net.Packet.t)) ->
      add_float buf at;
      Buffer.add_int64_le buf (Int64.of_int p.Utc_net.Packet.seq);
      Buffer.add_int64_le buf (Int64.of_int (Utc_net.Flow.hash p.Utc_net.Packet.flow));
      Buffer.add_int64_le buf (Int64.of_int p.Utc_net.Packet.bits);
      add_float buf p.Utc_net.Packet.sent_at)
    sends;
  Buffer.contents buf

let cache_find c key =
  Mutex.lock c.lock;
  let found = Hashtbl.find_opt c.table key in
  (match found with
  | Some _ -> c.hits <- c.hits + 1
  | None -> c.misses <- c.misses + 1);
  Mutex.unlock c.lock;
  found

let cache_store c key utility =
  Mutex.lock c.lock;
  if Hashtbl.length c.table >= c.capacity then Hashtbl.reset c.table;
  Hashtbl.replace c.table key utility;
  Mutex.unlock c.lock

let rec ascending = function
  | a :: (b :: _ as rest) -> a < b && ascending rest
  | [] | [ _ ] -> true

(* The tie rule in [decide] takes the highest index in the band as the
   latest candidate, so the delays must ascend strictly. *)
let validate config =
  match config.delays with
  | 0.0 :: rest when List.for_all (fun d -> d > 0.0) rest ->
    if not (ascending config.delays) then invalid_arg "Planner: delays must ascend strictly"
    else if config.horizon <= 0.0 then invalid_arg "Planner: horizon must be positive"
  | [] | _ :: _ -> invalid_arg "Planner: delays must start with 0 and be positive afterwards"

let decisions_c = Utc_obs.Metrics.counter "core.planner.decisions"

(* The journal entry is a function of the net-utility vector only. *)
let record_decision ~now ~evaluations decision =
  Utc_obs.Metrics.incr decisions_c;
  if Utc_obs.Sink.enabled () then begin
    let action, delay =
      match decision with
      | Send_now -> ("send_now", 0.0)
      | Sleep d -> ("sleep", d)
    in
    let margin =
      match
        List.sort (fun a b -> Float.compare b a) (List.map (fun e -> e.net_utility) evaluations)
      with
      | best :: second :: _ -> best -. second
      | [ _ ] | [] -> 0.0
    in
    Utc_obs.Sink.record ~at:now
      (Utc_obs.Event.Planner_decide
         { action; delay; margin; candidates = List.length evaluations })
  end

(* [Utility.of_outcomes] of one outcome of weight [logw] whose
   deliveries' left-folded utility is [sum]. *)
let single_outcome ~logw sum = 0.0 +. (exp logw *. sum)

(* A candidate's gross utility under [model], from its resumed run and
   the baseline's delivery [terms] under [model] with their running sums
   [partial]. A resumed candidate's deliveries are the baseline's first
   [prefix], its own [fresh] ones, then the baseline's from [suffix] on,
   so its gross utility adds the baseline's own terms around the fresh
   ones in the order [Utility.of_outcomes] folds them: bit for bit a full
   rollout. *)
(* lint:hotpath -- runs for every (hypothesis x delay) pair of a decision
   whose planning model does not fork *)
let gross config ~now model (terms, partial) = function
  | Forward.Single { logw; prefix; fresh; suffix } ->
    (* Local refs that no closure captures, so the sum stays unboxed. *)
    let acc = ref partial.(prefix) and rest = ref fresh in
    while
      match !rest with
      | d :: tail ->
        acc := !acc +. Utility.of_delivery config.utility model ~now d;
        rest := tail;
        true
      | [] -> false
    do
      ()
    done;
    for k = suffix to Array.length terms - 1 do
      acc := !acc +. terms.(k)
    done;
    single_outcome ~logw !acc
  | Forward.Forked outcomes -> Utility.of_outcomes config.utility model ~now outcomes

(* lint:hotpath -- runs for every group of hypotheses of a decision
   whose planning model does not fork *)
let gross_utilities config ~now ~until models state ~pending sends =
  match Forward.trace models.(0) state ~sends:pending ~until with
  | None -> None
  | Some trace ->
    let deliveries = Forward.trace_deliveries trace in
    let m = Array.length deliveries in
    let baseline_terms model =
      let terms = Array.make m 0.0 and partial = Array.make (m + 1) 0.0 in
      for k = 0 to m - 1 do
        terms.(k) <- Utility.of_delivery config.utility model ~now deliveries.(k);
        partial.(k + 1) <- partial.(k) +. terms.(k)
      done;
      (terms, partial)
    in
    let baselines = Array.map baseline_terms models in
    let utilities = Array.map (fun _ -> Array.make (Array.length sends) 0.0) models in
    (* Each candidate is resumed once and priced under every model before
       the next, so its run dies young. *)
    for k = 0 to Array.length sends - 1 do
      let resumed = Forward.resume trace sends.(k) in
      for j = 0 to Array.length models - 1 do
        utilities.(j).(k) <- gross config ~now models.(j) baselines.(j) resumed
      done
    done;
    let logw = Forward.trace_logw trace in
    Some (Array.mapi (fun j (_, partial) -> (single_outcome ~logw partial.(m), utilities.(j))) baselines)

(* One hypothesis' contribution to each candidate's net utility,
   [weight * (utility - baseline)], written over [utilities]. *)
let weigh ~weight ~baseline utilities =
  for k = 0 to Array.length utilities - 1 do
    utilities.(k) <- weight *. (utilities.(k) -. baseline)
  done;
  utilities

(* Full per-candidate rollouts, for a hypothesis whose baseline forks:
   each candidate is a [Forward.run] of its own, and the cache serves
   the baseline. *)
let price_forking config ?cache ~now ~t_end ~weight (hyp : _ Belief.hypothesis) prepared
    ~pending sends =
  let utility_of sends =
    Utility.of_outcomes config.utility prepared ~now
      (Forward.run prepared hyp.Belief.state ~sends ~until:t_end)
  in
  let digest =
    match cache with
    | None -> ""
    | Some _ -> hyp_digest ~now ~t_end hyp
  in
  (* Only the baseline is worth probing: within a burst the sender's
     pending list at wakeup k+1 is exactly candidate 0's send list at
     wakeup k, so baseline rollouts replay from the candidate-0 entries
     stored one decision earlier. *)
  let baseline =
    match cache with
    | None -> utility_of pending
    | Some c -> (
      let key = strategy_key ~digest pending in
      match cache_find c key with
      | Some utility -> utility
      | None ->
        let utility = utility_of pending in
        cache_store c key utility;
        utility)
  in
  Array.mapi
    (fun i send ->
      let sends = pending @ [ send ] in
      let utility = utility_of sends in
      (match cache with
      | Some c when i = 0 -> cache_store c (strategy_key ~digest sends) utility
      | Some _ | None -> ());
      weight *. (utility -. baseline))
    sends

(* lint:hotpath -- the EU sweep prices every (hypothesis x delay) pair
   per decision; ROADMAP hot-path program tracks its allocations *)
let decide ?cache config ~belief ~now ~pending ~make_packet =
  validate config;
  Utc_obs.Metrics.span ~name:"planner.decide"
    ~now:(fun () -> now)
    (fun () ->
  let hyps = Belief.top belief ~n:top_hyps in
  let max_delay = List.fold_left Float.max 0.0 config.delays in
  match hyps with
  | [] ->
    record_decision ~now ~evaluations:[] (Sleep max_delay);
    (Sleep max_delay, [])
  | _ :: _ ->
    let z = Utc_inference.Logw.logsumexp (List.map (fun h -> h.Belief.logw) hyps) in
    let t_end = now +. max_delay +. config.horizon in
    let candidates = Array.of_list config.delays in
    let n = Array.length candidates in
    (* Candidate [d] sends one packet at [now + d], the same for every
       hypothesis. *)
    let hyps = Array.of_list hyps in
    let count = Array.length hyps in
    let plans = Array.map (fun (h : _ Belief.hypothesis) -> Forward.plan_variant h.Belief.prepared) hyps in
    let sends = Array.map (fun d -> (now +. d, make_packet (now +. d))) candidates in
    let weight h = exp (hyps.(h).Belief.logw -. z) in
    (* [kept.(h)]: hypothesis [h]'s contribution, priced with its group. *)
    let kept = Array.make count None in
    let price_group members =
      match
        gross_utilities config ~now ~until:t_end
          (Array.map (fun h -> plans.(h)) members)
          hyps.(members.(0)).Belief.state ~pending sends
      with
      | Some priced ->
        Array.iteri
          (fun j (baseline, utilities) ->
            kept.(members.(j)) <- Some (weigh ~weight:(weight members.(j)) ~baseline utilities))
          priced
      | None -> ()
    in
    let net = Array.make n 0.0 in
    (* The EU sweep itself, attributed separately from candidate pick and
       decision recording. Hypotheses whose planning models share dynamics
       from equal states form a group (a hypothesis that shares with none
       is a group of one), priced off one trace at its first member; only
       the members' contributions outlive the trace. Contributions are
       added into [net] in index order. A hypothesis whose group's
       baseline forks is priced with full runs at its turn. *)
    Utc_obs.Metrics.span ~name:"price"
      ~now:(fun () -> now)
      (fun () ->
        let first =
          Belief.shared_runs
            ~labels:(Array.map (fun (h : _ Belief.hypothesis) -> h.Belief.label) hyps)
            ~hashes:(Array.map (fun (h : _ Belief.hypothesis) -> h.Belief.hash) hyps)
            (Array.map (fun (h : _ Belief.hypothesis) -> h.Belief.state) hyps)
        in
        (* [groups.(r)]: the members of the group whose first member is
           [r], in index order; empty for every other index. *)
        let groups = Array.make count [] in
        for h = count - 1 downto 0 do
          groups.(first.(h)) <- h :: groups.(first.(h)) (* lint:allow R11 -- one cell per hypothesis per decision, listing each group's members *)
        done;
        for h = 0 to count - 1 do
          if first.(h) = h then price_group (Array.of_list groups.(h));
          let contribution =
            match kept.(h) with
            | Some contribution -> contribution
            | None ->
              price_forking config ?cache ~now ~t_end ~weight:(weight h) hyps.(h) plans.(h) ~pending sends
          in
          for i = 0 to n - 1 do
            net.(i) <- net.(i) +. contribution.(i)
          done
        done);
    let evaluations =
      Array.to_list (Array.mapi (fun i d -> { delay = d; net_utility = net.(i) }) candidates) (* lint:allow R11 -- decision report row, built once per decide *)
    in
    let best = Array.fold_left Float.max neg_infinity net in
    let decision =
      if best <= 0.0 then Sleep max_delay
      else begin
        (* Latest candidate within the tie band of the best. *)
        let threshold = best -. (tie_epsilon *. best) in
        let chosen = ref 0 in
        Array.iteri (fun i _ -> if net.(i) >= threshold then chosen := i) candidates;
        let d = candidates.(!chosen) in
        if d = 0.0 then Send_now else Sleep d
      end
    in
    record_decision ~now ~evaluations decision;
    (decision, evaluations))
