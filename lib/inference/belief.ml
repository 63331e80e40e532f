open Utc_net
module Tb = Utc_sim.Timebase
module Rng = Utc_sim.Rng
module Forward = Utc_model.Forward
module Mstate = Utc_model.Mstate

type ack = { seq : int; time : Tb.t }

type 'p hypothesis = {
  params : 'p;
  prepared : Forward.prepared;
  state : Mstate.t;
  logw : float;
  awaiting : Forward.delivery list;
      (* Primary deliveries whose acknowledgment, shifted by the
         hypothesis' observation offset, is not due yet (newest first). *)
}

type cap_policy =
  [ `Top_k
  | `Resample of Rng.t
  ]

(* Structure-of-arrays hypothesis storage (ROADMAP hot-path program):
   the weight pipeline — logsumexp, normalize, prune, ESS, posterior
   mass — runs as tight loops over one flat unboxed [float array]
   instead of chasing a record per hypothesis, and the payload columns
   ride in parallel arrays permuted together. Every fold below iterates
   in ascending index order, which is exactly the order the former
   [hypothesis list] pipeline summed in, so the stored bits are
   unchanged. Index [i] across all five arrays is one hypothesis;
   [sort_store]'s comparator falls back to the index, emulating the
   stable sort the list code relied on. *)
type 'p store = {
  params : 'p array;
  prepared : Forward.prepared array;
  states : Mstate.t array;
  logw : float array;
  awaiting : Forward.delivery list array;
}

type 'p t = {
  store : 'p store;
  min_weight : float;
  max_hyps : int;
  cap_policy : cap_policy;
  obs_offset : 'p -> float;
  now : Tb.t;
}

(* Tolerance, in seconds, when matching a predicted delivery time to an
   observed ACK time. *)
let tick = 1e-6

type update_status =
  | Consistent
  | All_rejected

let store_size s = Array.length s.logw

let empty_store () =
  { params = [||]; prepared = [||]; states = [||]; logw = [||]; awaiting = [||] }

let store_of_array (arr : 'p hypothesis array) =
  {
    params = Array.map (fun (h : 'p hypothesis) -> h.params) arr;
    prepared = Array.map (fun (h : 'p hypothesis) -> h.prepared) arr;
    states = Array.map (fun (h : 'p hypothesis) -> h.state) arr;
    logw = Array.map (fun (h : 'p hypothesis) -> h.logw) arr;
    awaiting = Array.map (fun (h : 'p hypothesis) -> h.awaiting) arr;
  }

let hyp_at s i =
  {
    params = s.params.(i);
    prepared = s.prepared.(i);
    state = s.states.(i);
    logw = s.logw.(i);
    awaiting = s.awaiting.(i);
  }

(* Reorder every column by the index array (which may also select a
   subset). The result's arrays are fresh, so callers may overwrite
   the new [logw] in place. *)
let permute s idx =
  {
    params = Array.map (fun i -> s.params.(i)) idx;
    prepared = Array.map (fun i -> s.prepared.(i)) idx;
    states = Array.map (fun i -> s.states.(i)) idx;
    logw = Array.map (fun i -> s.logw.(i)) idx;
    awaiting = Array.map (fun i -> s.awaiting.(i)) idx;
  }

let normalize_store s =
  let z = Logw.logsumexp_arr s.logw in
  if z = neg_infinity then empty_store ()
  else { s with logw = Array.map (fun x -> x -. z) s.logw }

(* Heaviest first; ties keep their prior relative order (the index
   tie-break makes this the stable descending sort the list pipeline
   used). *)
let sort_store s =
  let idx = Array.init (store_size s) Fun.id in
  Array.sort
    (fun i j ->
      let c = Float.compare s.logw.(j) s.logw.(i) in
      if c <> 0 then c else Int.compare i j)
    idx;
  permute s idx

let create ?(min_weight = 1e-9) ?(max_hyps = 20_000) ?(cap_policy = `Top_k)
    ?(obs_offset = fun _ -> 0.0) seeds =
  let hyp (params, weight, prepared, state) =
    {
      params;
      prepared;
      state;
      logw = (if weight <= 0.0 then neg_infinity else log weight);
      awaiting = [];
    }
  in
  let store = normalize_store (store_of_array (Array.of_list (List.map hyp seeds))) in
  { store = sort_store store; min_weight; max_hyps; cap_policy; obs_offset; now = Tb.zero }

(* Log-likelihood of the observed ACK set under one simulated outcome, or
   None if the outcome is inconsistent: wrong delivery time, an ACK the
   outcome cannot explain, or a missing ACK with no loss to blame.
   [offset] shifts predicted delivery times into the sender's observation
   clock: a hypothesized return-path delay plus receiver clock skew
   (paper S3.4/S3.5). Survival probabilities are the hypothesis' own,
   read off each delivery's trail by [model]. *)
let score ~offset ~acks model (deliveries : Forward.delivery list) =
  let exception Rejected in
  let log_positive p = if p <= 0.0 then raise Rejected else log p in
  try
    let delivery_ll acc (d : Forward.delivery) =
      match List.find_opt (fun a -> a.seq = d.packet.Packet.seq) acks with
      | Some a ->
        if not (Tb.close ~tol:tick a.time (d.time +. offset)) then raise Rejected;
        acc +. log_positive (Forward.survive_p model d)
      | None ->
        (* Acknowledgment was due by now but never arrived: the packet
           must have been lost at a last-mile loss element. *)
        acc +. log_positive (1.0 -. Forward.survive_p model d)
    in
    let ll = List.fold_left delivery_ll 0.0 deliveries in
    let delivered a = List.exists (fun (d : Forward.delivery) -> d.packet.Packet.seq = a.seq) deliveries in
    if List.for_all delivered acks then Some ll else None
  with Rejected -> None

let prune_store ~min_weight s =
  let n = store_size s in
  let heaviest = ref neg_infinity in
  for i = 0 to n - 1 do
    heaviest := Float.max !heaviest s.logw.(i)
  done;
  if !heaviest = neg_infinity then empty_store ()
  else begin
    let threshold = !heaviest +. log min_weight in
    let kept = ref 0 in
    for i = 0 to n - 1 do
      if s.logw.(i) >= threshold then incr kept
    done;
    if !kept = n then s
    else begin
      let idx = Array.make !kept 0 in
      let j = ref 0 in
      for i = 0 to n - 1 do
        if s.logw.(i) >= threshold then begin
          idx.(!j) <- i;
          incr j
        end
      done;
      permute s idx
    end
  end

let systematic_resample rng ~n s =
  let len = store_size s in
  let weights = Array.map exp s.logw in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let counts = Array.make len 0 in
  let step = total /. float_of_int n in
  let u0 = Rng.uniform rng ~lo:0.0 ~hi:step in
  let cursor = ref 0 in
  let cum = ref weights.(0) in
  for i = 0 to n - 1 do
    let target = u0 +. (float_of_int i *. step) in
    while !cum < target && !cursor < len - 1 do
      incr cursor;
      cum := !cum +. weights.(!cursor)
    done;
    counts.(!cursor) <- counts.(!cursor) + 1
  done;
  let kept = ref 0 in
  Array.iter (fun c -> if c > 0 then incr kept) counts;
  let idx = Array.make !kept 0 in
  let j = ref 0 in
  for i = 0 to len - 1 do
    if counts.(i) > 0 then begin
      idx.(!j) <- i;
      incr j
    end
  done;
  let resampled = permute s idx in
  for k = 0 to !kept - 1 do
    resampled.logw.(k) <- log (float_of_int counts.(idx.(k)) /. float_of_int n)
  done;
  resampled

let take_store s k =
  if k >= store_size s then s else permute s (Array.init k Fun.id)

let cap t s =
  if store_size s <= t.max_hyps then s
  else begin
    match t.cap_policy with
    | `Top_k -> take_store (sort_store s) t.max_hyps
    | `Resample rng -> systematic_resample rng ~n:t.max_hyps s
  end

(* --- compaction --- *)

(* A surviving fork of one parent, with the hash its compaction slot is
   found by. *)
type 'p fork = {
  params : 'p;
  prepared : Forward.prepared;
  state : Mstate.t;
  logw : float;
  awaiting : Forward.delivery list;
  hash : int;
}

let structural_hash x = Hashtbl.hash x (* lint:allow R4 -- the hash only picks a probe slot; slots keep first-seen order *)

let fork_hash ~params_hash state awaiting =
  Mstate.hash state + (params_hash * 31) + (structural_hash awaiting * 961)

(* Every fork of a parent shares its params, so physical identity
   settles nearly every comparison; the bytes are compared only for
   seeds built apart with equal values. *)
let same_params a b = a == b || String.equal (Marshal.to_string a []) (Marshal.to_string b [])

let same_delivery (a : Forward.delivery) (b : Forward.delivery) =
  Mstate.same_float a.time b.time
  && Mstate.same_trail a.trail b.trail
  && Mstate.same_packet a.packet b.packet

(* The compaction identity: equal params, [Mstate.equal] states and
   bit-identical awaiting deliveries, cheapest test first. *)
let same_fork (a : _ fork) (b : _ fork) =
  a.hash = b.hash
  && same_params a.params b.params
  && Mstate.equal a.state b.state
  && List.equal same_delivery a.awaiting b.awaiting

(* One step's compaction table. Slot [k] holds the first-seen fork of
   its class in [forks.(k)] and, in [logw.(k)], the log-weights of every
   fork absorbed into it, folded in absorption order. [index] is an
   open-addressing table of slot numbers plus one (0 is empty), probed
   linearly from a fork's hash and kept at most half full; it only finds
   slots, so its layout never reaches a posterior. *)
type 'p slots = {
  mutable forks : 'p fork array;
  mutable logw : float array;
  mutable count : int;
  mutable index : int array;
}

(* An open-addressing index for [n] entries: a power of two, at least
   16 and at least [2 n], so it starts at most half full. *)
let index_size n =
  let size = ref 16 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  !size

(* Sized from the parent store: a step usually keeps about as many
   hypotheses as it started with. *)
let slots_create n = { forks = [||]; logw = [||]; count = 0; index = Array.make (index_size n) 0 }

let slots_grow slots (f : _ fork) =
  let capacity = max (Array.length slots.index / 2) (2 * slots.count) in
  let forks = Array.make capacity f in
  Array.blit slots.forks 0 forks 0 slots.count;
  let logw = Array.make capacity 0.0 in
  Array.blit slots.logw 0 logw 0 slots.count;
  slots.forks <- forks;
  slots.logw <- logw

let reindex slots =
  let index = Array.make (2 * Array.length slots.index) 0 in
  let mask = Array.length index - 1 in
  for k = 0 to slots.count - 1 do
    let j = ref (slots.forks.(k).hash land mask) in
    while index.(!j) > 0 do
      j := (!j + 1) land mask
    done;
    index.(!j) <- k + 1
  done;
  slots.index <- index

(* lint:hotpath -- runs once per surviving fork *)
let absorb slots (f : _ fork) =
  let index = slots.index in
  let mask = Array.length index - 1 in
  let j = ref (f.hash land mask) in
  while index.(!j) > 0 && not (same_fork slots.forks.(index.(!j) - 1) f) do
    j := (!j + 1) land mask
  done;
  let k = index.(!j) - 1 in
  if k >= 0 then slots.logw.(k) <- Logw.logsumexp2 slots.logw.(k) f.logw
  else begin
    if slots.count = Array.length slots.forks then slots_grow slots f;
    slots.forks.(slots.count) <- f;
    slots.logw.(slots.count) <- f.logw;
    slots.count <- slots.count + 1;
    index.(!j) <- slots.count;
    if 2 * slots.count > Array.length index then reindex slots
  end

let store_of_slots slots =
  let n = slots.count in
  let forks = slots.forks in
  {
    params = Array.init n (fun k -> forks.(k).params);
    prepared = Array.init n (fun k -> forks.(k).prepared);
    states = Array.init n (fun k -> forks.(k).state);
    logw = Array.sub slots.logw 0 n;
    awaiting = Array.init n (fun k -> forks.(k).awaiting);
  }

(* lint:hotpath -- expand/score/compact runs per hypothesis per tick;
   ROADMAP hot-path program tracks its allocations *)
let step t ~sends ~acks ~now ~now_prio ~condition =
  let s = t.store in
  let n = store_size s in
  (* Hypotheses whose models share dynamics and whose states are equal
     share one run: [first.(i)] runs it, and keeps its outcomes until
     [last.(first.(i))] has scored them. *)
  let run i = Forward.run ?until_prio:now_prio s.prepared.(i) s.states.(i) ~sends ~until:now in
  let first = Forward.representatives s.prepared s.states in
  let last = Array.init n Fun.id in
  for i = 0 to n - 1 do
    last.(first.(i)) <- i
  done;
  let shared = Array.make n [] in
  let outcomes_of i =
    let r = first.(i) in
    if r = i then begin
      let outcomes = run i in
      if last.(i) > i then shared.(i) <- outcomes;
      outcomes
    end
    else begin
      let outcomes = shared.(r) in
      if last.(r) = i then shared.(r) <- [];
      outcomes
    end
  in
  let expand i =
    let hyp_params = s.params.(i) in
    let hyp_prepared = s.prepared.(i) in
    let hyp_logw = s.logw.(i) in
    let hyp_awaiting = s.awaiting.(i) in
    let offset = t.obs_offset hyp_params in
    let params_hash = structural_hash hyp_params in
    let outcomes = outcomes_of i in
    let keep (o : Forward.outcome) = (* lint:allow R11 -- per-hypothesis outcome scorer closes over offset and acks *)
      (* Only primary deliveries are observable; those whose (offset)
         acknowledgment is due by now are scored, the rest carry over. *)
      let observable =
        List.filter
          (fun (d : Forward.delivery) -> Flow.equal d.packet.Packet.flow Flow.Primary) (* lint:allow R11 -- per-outcome observability filter; delivery lists are short *)
          o.Forward.deliveries
      in
      let due, awaiting =
        List.partition
          (fun (d : Forward.delivery) -> Tb.( <=. ) (d.time +. offset) (now +. tick)) (* lint:allow R11 -- per-outcome due/awaiting split *)
          (hyp_awaiting @ observable)
      in
      let ll =
        if condition then score ~offset ~acks hyp_prepared due
        else Some 0.0
      in
      match ll with
      | None -> None
      | Some ll ->
        let logw = hyp_logw +. o.logw +. ll in
        if logw = neg_infinity then None
        else begin
          let hash = fork_hash ~params_hash o.state awaiting in
          Some { params = hyp_params; prepared = hyp_prepared; state = o.state; logw; awaiting; hash } (* lint:allow R11 -- the surviving fork IS the posterior hypothesis record *)
        end
    in
    List.filter_map keep outcomes
  in
  (* Compact on the fly: expanding thousands of hypotheses that each may
     fork hundreds of ways must not materialize the whole product before
     merging (under model misspecification the forking is at its worst
     exactly when every branch survives unconditioned). Absorbing a
     duplicate fork is a float write into its slot. *)
  let slots = slots_create n in
  let absorb f = absorb slots f in
  Utc_obs.Metrics.span ~name:"expand"
    ~now:(fun () -> now)
    (fun () ->
      for i = 0 to n - 1 do
        List.iter absorb (expand i)
      done);
  Utc_obs.Metrics.span ~name:"compact"
    ~now:(fun () -> now)
    (fun () ->
      let st = prune_store ~min_weight:t.min_weight (store_of_slots slots) in
      let st = normalize_store st in
      let st = normalize_store (cap t st) in
      { t with store = sort_store st; now })

(* Groups by compaction's params identity: [structural_hash] picks a
   probe slot in an open-addressing index of group numbers plus one (0
   is empty), and [same_params] settles each candidate. Groups keep
   their first member's params, in first-seen order, and sum in store
   order; heaviest first, ties in first-seen order. *)
let posterior t =
  let s = t.store in
  let n = store_size s in
  let index = Array.make (index_size n) 0 in
  let mask = Array.length index - 1 in
  let first = Array.make n 0 in
  let mass = Array.make n 0.0 in
  let groups = ref 0 in
  for i = 0 to n - 1 do
    let p = s.params.(i) in
    let j = ref (structural_hash p land mask) in
    while index.(!j) > 0 && not (same_params s.params.(first.(index.(!j) - 1)) p) do
      j := (!j + 1) land mask
    done;
    let g = index.(!j) - 1 in
    if g >= 0 then mass.(g) <- mass.(g) +. exp s.logw.(i)
    else begin
      let g = !groups in
      index.(!j) <- g + 1;
      first.(g) <- i;
      mass.(g) <- exp s.logw.(i);
      incr groups
    end
  done;
  let order = Array.init !groups Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare mass.(b) mass.(a) with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  Array.fold_right (fun g acc -> (s.params.(first.(g)), mass.(g)) :: acc) order []

let posterior_entropy posterior =
  Logw.entropy (List.map (fun (_, w) -> if w <= 0.0 then neg_infinity else log w) posterior)

let entropy t = posterior_entropy (posterior t)

let ess t =
  let s = t.store in
  let sum_sq = ref 0.0 in
  for i = 0 to store_size s - 1 do
    let w = exp s.logw.(i) in
    sum_sq := !sum_sq +. (w *. w)
  done;
  if !sum_sq <= 0.0 then 0.0 else 1.0 /. !sum_sq

(* Telemetry is recorded at the boundary of [update]/[reseed]. Entropy
   and ESS are only computed when the sink is live. *)
let updates_c = Utc_obs.Metrics.counter "inference.belief.updates"
let rejected_c = Utc_obs.Metrics.counter "inference.belief.all_rejected"
let reseeds_c = Utc_obs.Metrics.counter "inference.belief.reseeds"

let record_update t status =
  Utc_obs.Metrics.incr updates_c;
  (match status with
  | All_rejected -> Utc_obs.Metrics.incr rejected_c
  | Consistent -> ());
  if Utc_obs.Sink.enabled () then
    Utc_obs.Sink.record ~at:t.now
      (Utc_obs.Event.Belief_update
         {
           size = store_size t.store;
           entropy = entropy t;
           ess = ess t;
           status =
             (match status with
             | Consistent -> "consistent"
             | All_rejected -> "all_rejected");
         })

(* lint:hotpath *)
let update t ~sends ~acks ~now ?now_prio () =
  Utc_obs.Metrics.span ~name:"belief.update"
    ~now:(fun () -> now)
    (fun () ->
      let result =
        let conditioned = step t ~sends ~acks ~now ~now_prio ~condition:true in
        if store_size conditioned.store > 0 then (conditioned, Consistent)
        else begin
          let unconditioned = step t ~sends ~acks:[] ~now ~now_prio ~condition:false in
          (unconditioned, All_rejected)
        end
      in
      record_update (fst result) (snd result);
      result)

let advance t ~sends ~now ?now_prio () =
  step t ~sends ~acks:[] ~now ~now_prio ~condition:false

(* Shift a hypothesis state (typically Mstate.initial, at time 0) so its
   history restarts at [now]: its clock, the origin its pingers and
   periodic gates count from, every pending event, and any in-service
   completion move together, preserving all relative timing. *)
let anchor now (state : Mstate.t) =
  let shift = now -. state.Mstate.now in
  if shift = 0.0 then state
  else begin
    let nodes =
      Array.map
        (fun (n : Mstate.nstate) ->
          match n with
          | Mstate.MStation s ->
            Mstate.MStation
              {
                s with
                Mstate.in_service =
                  Option.map (fun (p, at) -> (p, at +. shift)) s.Mstate.in_service;
              }
          | Mstate.MGate _ | Mstate.MEither _ | Mstate.MMultipath _ | Mstate.MStateless -> n)
        state.Mstate.nodes
    in
    let pending =
      List.map
        (fun (e : Mstate.event) -> { e with Mstate.time = e.Mstate.time +. shift })
        state.Mstate.pending
    in
    { state with Mstate.now; origin = state.Mstate.origin +. shift; nodes; pending }
  end

let reseed t ~seeds ?(keep = 0.0) ~now () =
  if keep < 0.0 || keep >= 1.0 then invalid_arg "Belief.reseed: keep must be in [0, 1)";
  if Tb.compare now t.now < 0 then invalid_arg "Belief.reseed: now is before the belief's time";
  let fresh =
    normalize_store
      (store_of_array
         (Array.of_list
            (List.map
               (fun (params, weight, prepared, state) ->
                 {
                   params;
                   prepared;
                   state = anchor now state;
                   logw = (if weight <= 0.0 then neg_infinity else log weight);
                   awaiting = [];
                 })
               seeds)))
  in
  if store_size fresh = 0 then invalid_arg "Belief.reseed: no fresh seeds with positive weight";
  let kept =
    if keep <= 0.0 then empty_store ()
    else begin
      (* Survivors must be at [now] already (the caller just filtered to
         now); scale their unit mass down to [keep]. *)
      let stale = ref false in
      Array.iter
        (fun (st : Mstate.t) -> if Tb.compare st.Mstate.now now <> 0 then stale := true)
        t.store.states;
      if !stale then invalid_arg "Belief.reseed: kept hypotheses are not at now";
      { t.store with logw = Array.map (fun lw -> lw +. log keep) t.store.logw }
    end
  in
  let fresh_scale = if store_size kept = 0 then 0.0 else log1p (-.keep) in
  let fresh = { fresh with logw = Array.map (fun lw -> lw +. fresh_scale) fresh.logw } in
  let combined =
    {
      params = Array.append kept.params fresh.params;
      prepared = Array.append kept.prepared fresh.prepared;
      states = Array.append kept.states fresh.states;
      logw = Array.append kept.logw fresh.logw;
      awaiting = Array.append kept.awaiting fresh.awaiting;
    }
  in
  let result = { t with store = sort_store (normalize_store combined); now } in
  Utc_obs.Metrics.incr reseeds_c;
  Utc_obs.Sink.record ~at:now
    (Utc_obs.Event.Belief_reseed
       { size = store_size result.store; keep = store_size kept });
  result

let support t = List.init (store_size t.store) (hyp_at t.store)

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to store_size t.store - 1 do
    acc := f !acc (hyp_at t.store i)
  done;
  !acc

let top t ~n = List.init (min n (store_size t.store)) (hyp_at t.store)

let size t = store_size t.store
let now t = t.now

let marginal t ~project =
  let s = t.store in
  let table = Hashtbl.create 64 in
  let order = ref [] in
  for i = 0 to store_size s - 1 do
    let k = project s.params.(i) in
    match Hashtbl.find_opt table k with
    | None ->
      Hashtbl.replace table k (exp s.logw.(i));
      order := k :: !order
    | Some w -> Hashtbl.replace table k (w +. exp s.logw.(i))
  done;
  let groups = List.rev_map (fun k -> (k, Hashtbl.find table k)) !order in
  List.sort (fun (_, a) (_, b) -> Float.compare b a) groups

let map_estimate t =
  match posterior t with
  | [] -> invalid_arg "Belief.map_estimate: empty belief"
  | best :: _ -> best

let mean t ~value =
  let s = t.store in
  let acc = ref 0.0 in
  for i = 0 to store_size s - 1 do
    acc := !acc +. (exp s.logw.(i) *. value s.params.(i))
  done;
  !acc
