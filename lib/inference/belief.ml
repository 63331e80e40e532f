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
  label : int;
  hash : int;
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
   unchanged. Index [i] across all seven arrays is one hypothesis;
   [sorted_order] is the stable sort the list code relied on.
   [labels.(i)] is the model's dynamics class
   ([Forward.dynamics_labels]), set by [create] and [reseed] and
   inherited by forks; [hashes.(i)] is [Mstate.hash states.(i)],
   computed once when the state is stored. *)
type 'p store = {
  params : 'p array;
  prepared : Forward.prepared array;
  labels : int array;
  states : Mstate.t array;
  hashes : int array;
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
  {
    params = [||];
    prepared = [||];
    labels = [||];
    states = [||];
    hashes = [||];
    logw = [||];
    awaiting = [||];
  }

(* A constant, so it is allocated statically and is never young: the
   value a step's unfilled state cells start from. [Array.make] of more
   than 256 words runs a whole minor collection first when its initial
   value is young, and so do [Array.map], [init] and [of_list], which
   start from the first element. A step's columns of young values
   (states, awaiting deliveries) are therefore made from [no_state] or
   [[]] and filled; [create] and [reseed] map their seeds as they are. *)
let no_state : Mstate.t = { now = 0.0; origin = 0.0; nodes = [||]; pending = []; next_seq = 0 }

(* A store of fresh seeds, [state] applied to each seed's state before
   it is hashed; unnormalized, in seed order, labelled among themselves. *)
let store_of_seeds ~state seeds =
  let seeds = Array.of_list seeds in
  let prepared = Array.map (fun (_, _, prepared, _) -> prepared) seeds in
  let states = Array.map (fun (_, _, _, st) -> state st) seeds in
  {
    params = Array.map (fun (params, _, _, _) -> params) seeds;
    prepared;
    labels = Forward.dynamics_labels prepared;
    states;
    hashes = Array.map Mstate.hash states;
    logw = Array.map (fun (_, weight, _, _) -> if weight <= 0.0 then neg_infinity else log weight) seeds;
    awaiting = Array.map (fun _ -> []) seeds;
  }

let hyp_at s i =
  {
    params = s.params.(i);
    prepared = s.prepared.(i);
    label = s.labels.(i);
    state = s.states.(i);
    hash = s.hashes.(i);
    logw = s.logw.(i);
    awaiting = s.awaiting.(i);
  }

(* Reorder every column by the index array (which may also select a
   subset). The result's arrays are fresh. *)
let permute s idx =
  {
    params = Array.map (fun i -> s.params.(i)) idx;
    prepared = Array.map (fun i -> s.prepared.(i)) idx;
    labels = Array.map (fun i -> s.labels.(i)) idx;
    states = Array.map (fun i -> s.states.(i)) idx;
    hashes = Array.map (fun i -> s.hashes.(i)) idx;
    logw = Array.map (fun i -> s.logw.(i)) idx;
    awaiting = Array.map (fun i -> s.awaiting.(i)) idx;
  }

(* [x -. logsumexp w] for every [x], the sum folded in index order;
   [None] when every weight is zero. *)
let normalized w =
  let z = Logw.logsumexp_arr w in
  if z = neg_infinity then None
  else begin
    let out = Array.make (Array.length w) 0.0 in
    for i = 0 to Array.length w - 1 do
      out.(i) <- w.(i) -. z
    done;
    Some out
  end

let normalize_store s =
  match normalized s.logw with
  | None -> empty_store ()
  | Some logw -> { s with logw }

(* Sorts [idx.(lo)] to [idx.(hi - 1)] heaviest first by [w], ties in
   their present order, with [tmp] as scratch over the same range: a
   top-down merge sort, by insertion below nine elements. Comparing
   [Float.compare] inline instead of through a closure, it gives the
   permutation [Array.stable_sort] gives under
   [fun i j -> Float.compare w.(j) w.(i)]: a stable sort's result is
   unique. *)
(* lint:hotpath -- compaction sorts every kept slot once per step *)
let rec sort_range w idx tmp lo hi =
  if hi - lo <= 8 then
    for k = lo + 1 to hi - 1 do
      let x = idx.(k) in
      let j = ref (k - 1) in
      while !j >= lo && Float.compare w.(idx.(!j)) w.(x) < 0 do
        idx.(!j + 1) <- idx.(!j);
        decr j
      done;
      idx.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_range w idx tmp lo mid;
    sort_range w idx tmp mid hi;
    Array.blit idx lo tmp lo (hi - lo);
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if !j >= hi || (!i < mid && Float.compare w.(tmp.(!i)) w.(tmp.(!j)) >= 0) then begin
        idx.(k) <- tmp.(!i);
        incr i
      end
      else begin
        idx.(k) <- tmp.(!j);
        incr j
      end
    done
  end

(* The indices of [w], heaviest first; a stable sort, so ties keep
   ascending index order, as the list pipeline's stable sort did. The
   one sort of [create], [reseed], the cap and compaction. *)
let sorted_order w =
  let n = Array.length w in
  let idx = Array.init n Fun.id in
  sort_range w idx (Array.make n 0) 0 n;
  idx

let sort_store s = permute s (sorted_order s.logw)

let create ?(min_weight = 1e-9) ?(max_hyps = 20_000) ?(cap_policy = `Top_k)
    ?(obs_offset = fun _ -> 0.0) seeds =
  if not (min_weight >= 0.0 && min_weight <= 1.0) then
    invalid_arg "Belief.create: min_weight must be in [0, 1]";
  if max_hyps < 1 then invalid_arg "Belief.create: max_hyps must be at least 1";
  let store = sort_store (normalize_store (store_of_seeds ~state:Fun.id seeds)) in
  { store; min_weight; max_hyps; cap_policy; obs_offset; now = Tb.zero }

(* An open-addressing index for [n] entries: a power of two, at least
   16 and at least [2 n], so it starts at most half full. *)
let index_size n =
  let size = ref 16 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  !size

(* [first.(i)] is the first index [j <= i] with the same dynamics label
   and an [Mstate.equal] state, so a run from [j] serves [i]: an
   open-addressing index of first indices plus one (0 is empty), probed
   from the label mixed with the stored state hash, settled by the label,
   the hash and then the state. *)
let shared_runs ~labels ~hashes states =
  let n = Array.length states in
  if Array.length labels <> n || Array.length hashes <> n then
    invalid_arg "Belief.shared_runs: arrays differ in length";
  let first = Array.init n Fun.id in
  if n >= 2 then begin
    let index = Array.make (index_size n) 0 in
    let mask = Array.length index - 1 in
    for i = 0 to n - 1 do
      let label = labels.(i) and hash = hashes.(i) in
      let j = ref (Mstate.mix label hash land mask) in
      while
        index.(!j) > 0
        &&
        let r = index.(!j) - 1 in
        not
          (labels.(r) = label
          && hashes.(r) = hash
          && (states.(r) == states.(i) || Mstate.equal states.(r) states.(i)))
      do
        j := (!j + 1) land mask
      done;
      if index.(!j) = 0 then index.(!j) <- i + 1 else first.(i) <- index.(!j) - 1
    done
  end;
  first

(* --- scoring --- *)

(* A due delivery, matched against the ACKs: acknowledged, so its
   likelihood is its survival, or not, so it must have been lost. *)
type term =
  | Acked of Forward.delivery
  | Lost of Forward.delivery

(* The member-independent part of scoring one outcome's observable
   deliveries for one observation offset: which deliveries are due and
   which carry over, whether the ACKs rule the outcome out (a due
   delivery at the wrong time, or an ACK no due delivery explains), and
   otherwise each due delivery's term, in delivery order. *)
type matched = {
  offset : float;
  carried : Forward.delivery list;
  carried_hash : int;
  consistent : bool;
  terms : term list;
}

let structural_hash x = Hashtbl.hash x (* lint:allow R4 -- the hash only picks a probe slot; slots keep first-seen order *)

let rec find_ack seq = function
  | [] -> None
  | (a : ack) :: rest -> if a.seq = seq then Some a else find_ack seq rest

let rec delivers seq = function
  | [] -> false
  | (d : Forward.delivery) :: rest -> d.packet.Packet.seq = seq || delivers seq rest

(* Match [observable] against [acks] at [offset]: deliveries whose
   shifted acknowledgment is due by [now] are scored, the rest carry
   over. Without [condition] nothing is scored. [offset] shifts predicted
   delivery times into the sender's observation clock: a hypothesized
   return-path delay plus receiver clock skew (paper S3.4/S3.5). *)
(* lint:hotpath -- once per shared outcome and observation offset *)
let match_acks ~acks ~now ~condition ~offset observable =
  let is_due (d : Forward.delivery) = Tb.( <=. ) (d.time +. offset) (now +. tick) in
  let due, carried =
    if List.for_all is_due observable then (observable, []) else List.partition is_due observable
  in
  (* Each due delivery's term, newest first, until one contradicts its
     ACK's time. *)
  let consistent = ref true and terms = ref [] and rest = ref (if condition then due else []) in
  while !consistent && not (List.is_empty !rest) do
    match !rest with
    | [] -> ()
    | d :: tail -> (
      rest := tail;
      match find_ack d.packet.Packet.seq acks with
      | Some a ->
        if Tb.close ~tol:tick a.time (d.time +. offset) then terms := Acked d :: !terms (* lint:allow R11 -- one term per due delivery, once per shared outcome and offset *)
        else consistent := false
      | None -> terms := Lost d :: !terms (* lint:allow R11 -- as above *))
  done;
  let consistent =
    !consistent && ((not condition) || List.for_all (fun (a : ack) -> delivers a.seq due) acks)
  in
  {
    offset;
    carried;
    carried_hash = structural_hash carried;
    consistent;
    terms = (if consistent then List.rev !terms else []);
  }

(* Log-likelihood of the observed ACKs under one matched outcome and a
   member's model, or [neg_infinity] if the outcome is inconsistent: the
   match ruled it out, or it blames a missing ACK on a loss the model
   cannot have. Each term adds [log (survive_p model d)] for an
   acknowledged delivery and [log (1 - survive_p model d)] for a lost
   one, from 0, in delivery order; survival is the member's own, read off
   the delivery's trail. Inlined, with local refs no closure captures, so
   the sum stays unboxed. *)
(* lint:hotpath -- once per outcome per hypothesis sharing its run *)
let[@inline] score model m =
  if not m.consistent then neg_infinity
  else begin
    let ll = ref 0.0 and rest = ref m.terms in
    while
      match !rest with
      | [] -> false
      | term :: tail ->
        let p =
          match term with
          | Acked d -> Forward.survive_p model d
          | Lost d -> 1.0 -. Forward.survive_p model d
        in
        if p <= 0.0 then begin
          ll := neg_infinity;
          false
        end
        else begin
          ll := !ll +. log p;
          rest := tail;
          true
        end
    do
      ()
    done;
    !ll
  end

(* The indices [i < n] with [p i], ascending. *)
let select n p =
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if p i then incr kept
  done;
  let idx = Array.make !kept 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if p i then begin
      idx.(!j) <- i;
      incr j
    end
  done;
  idx

(* [n] systematic draws over the normalized log-weights [logw]: the
   positions drawn at least once, ascending, and the log of each one's
   share of the draws. *)
let systematic_resample rng ~n logw =
  let len = Array.length logw in
  let weights = Array.map exp logw in
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
  let drawn = select len (fun i -> counts.(i) > 0) in
  (drawn, Array.map (fun i -> log (float_of_int counts.(i) /. float_of_int n)) drawn)

(* The positions in [logw] the cap policy keeps, with their new
   log-weights and whether they are already heaviest first: [`Top_k]
   the [max_hyps] heaviest, heaviest first with ties in position order;
   [`Resample] a systematic resample, in position order. *)
let cap t logw =
  match t.cap_policy with
  | `Top_k ->
    let top = Array.sub (sorted_order logw) 0 t.max_hyps in
    (top, Array.map (fun i -> logw.(i)) top, true)
  | `Resample rng ->
    let drawn, w = systematic_resample rng ~n:t.max_hyps logw in
    (drawn, w, false)

(* --- compaction --- *)

(* Every fork of a parent shares its params, so physical identity
   settles nearly every comparison; the bytes are compared only for
   seeds built apart with equal values. *)
let same_params a b = a == b || String.equal (Marshal.to_string a []) (Marshal.to_string b [])

let same_delivery (a : Forward.delivery) (b : Forward.delivery) =
  Mstate.same_float a.time b.time
  && Mstate.same_trail a.trail b.trail
  && Mstate.same_packet a.packet b.packet

(* One step's compaction table, as columns. Slot [k] holds the first-seen
   fork of its class: the store index of the hypothesis it forked from
   ([parents.(k)], through which its params, model and label are read),
   its state and that state's hash, its awaiting deliveries, the hash its
   slot is found by, and in [weights.(k)] the log-weights of every fork
   absorbed into it, folded in absorption order. Forks merge when their
   params are equal, their states [Mstate.equal] and their awaiting
   deliveries bit-identical, cheapest test first. [index] is an
   open-addressing table of slot numbers plus one (0 is empty), probed
   linearly from a fork's hash and kept at most half full; it only finds
   slots, so its layout never reaches a posterior. Columns start from
   immediates or [no_state], never from a fork. *)
type slots = {
  mutable parents : int array;
  mutable fork_states : Mstate.t array;
  mutable state_hashes : int array;
  mutable probes : int array;
  mutable carried : Forward.delivery list array;
  mutable weights : float array;
  mutable count : int;
  mutable index : int array;
}

(* Sized from the parent store: a step usually keeps about as many
   hypotheses as it started with. *)
let slots_create n =
  let index = Array.make (index_size n) 0 in
  let capacity = Array.length index / 2 in
  {
    parents = Array.make capacity 0;
    fork_states = Array.make capacity no_state;
    state_hashes = Array.make capacity 0;
    probes = Array.make capacity 0;
    carried = Array.make capacity [];
    weights = Array.make capacity 0.0;
    count = 0;
    index;
  }

let grown a init =
  let b = Array.make (2 * Array.length a) init in
  Array.blit a 0 b 0 (Array.length a);
  b

let slots_grow slots =
  slots.parents <- grown slots.parents 0;
  slots.fork_states <- grown slots.fork_states no_state;
  slots.state_hashes <- grown slots.state_hashes 0;
  slots.probes <- grown slots.probes 0;
  slots.carried <- grown slots.carried [];
  slots.weights <- grown slots.weights 0.0

let reindex slots =
  let index = Array.make (2 * Array.length slots.index) 0 in
  let mask = Array.length index - 1 in
  for k = 0 to slots.count - 1 do
    let j = ref (slots.probes.(k) land mask) in
    while index.(!j) > 0 do
      j := (!j + 1) land mask
    done;
    index.(!j) <- k + 1
  done;
  slots.index <- index

let same_fork (s : _ store) slots k ~params ~state ~carried ~probe =
  slots.probes.(k) = probe
  && same_params s.params.(slots.parents.(k)) params
  && Mstate.equal slots.fork_states.(k) state
  && List.equal same_delivery slots.carried.(k) carried

(* lint:hotpath -- runs once per surviving fork *)
let absorb (s : _ store) slots ~parent ~state ~state_hash ~carried ~probe logw =
  let params = s.params.(parent) in
  let index = slots.index in
  let mask = Array.length index - 1 in
  let j = ref (probe land mask) in
  while index.(!j) > 0 && not (same_fork s slots (index.(!j) - 1) ~params ~state ~carried ~probe) do
    j := (!j + 1) land mask
  done;
  let k = index.(!j) - 1 in
  if k >= 0 then slots.weights.(k) <- Logw.logsumexp2 slots.weights.(k) logw
  else begin
    if slots.count = Array.length slots.parents then slots_grow slots;
    let k = slots.count in
    slots.parents.(k) <- parent;
    slots.fork_states.(k) <- state;
    slots.state_hashes.(k) <- state_hash;
    slots.probes.(k) <- probe;
    slots.carried.(k) <- carried;
    slots.weights.(k) <- logw;
    slots.count <- k + 1;
    index.(!j) <- k + 1;
    if 2 * slots.count > Array.length index then reindex slots
  end

(* Prune forks lighter than [min_weight] times the heaviest, normalize,
   cap, normalize again and sort heaviest first: the former pipeline
   over whole stores, with its sums in its order, run over the slots'
   log-weights alone, so the store is built once, in its final order:
   its columns are made from immediates or [no_state] and filled, and
   params, models and labels are read from the parent store through the
   slots' parents. The second normalization runs even when nothing was
   capped: its [x -. z] can change bits. It is monotone, so a [`Top_k]
   cap's order, heaviest first with ties in position order, is already
   the final order, and only an uncapped or resampled store is sorted. *)
(* lint:hotpath -- once per step, over every slot *)
let compact t (s : _ store) slots =
  let lw = slots.weights in
  let heaviest = ref neg_infinity in
  for k = 0 to slots.count - 1 do
    heaviest := Float.max !heaviest lw.(k)
  done;
  let threshold = !heaviest +. log t.min_weight in
  let kept = select slots.count (fun k -> lw.(k) >= threshold) in
  let w = Array.make (Array.length kept) 0.0 in
  for r = 0 to Array.length kept - 1 do
    w.(r) <- lw.(kept.(r))
  done;
  match normalized w with
  | None -> empty_store ()
  | Some w -> (
    let kept, w, heaviest_first =
      if Array.length w <= t.max_hyps then (kept, w, false)
      else begin
        let capped, w, heaviest_first = cap t w in
        (Array.map (fun i -> kept.(i)) capped, w, heaviest_first)
      end
    in
    match normalized w with
    | None -> empty_store ()
    | Some w ->
      let order = if heaviest_first then Array.init (Array.length w) Fun.id else sorted_order w in
      let m = Array.length order in
      let parents = Array.make m 0 in
      let states = Array.make m no_state in
      let hashes = Array.make m 0 in
      let logw = Array.make m 0.0 in
      let awaiting = Array.make m [] in
      for r = 0 to m - 1 do
        let k = kept.(order.(r)) in
        parents.(r) <- slots.parents.(k);
        states.(r) <- slots.fork_states.(k);
        hashes.(r) <- slots.state_hashes.(k);
        logw.(r) <- w.(order.(r));
        awaiting.(r) <- slots.carried.(k)
      done;
      {
        params = Array.map (fun i -> s.params.(i)) parents;
        prepared = Array.map (fun i -> s.prepared.(i)) parents;
        labels = Array.map (fun i -> s.labels.(i)) parents;
        states;
        hashes;
        logw;
        awaiting;
      })

(* One outcome of a run, reduced once for every hypothesis sharing the
   run: its primary deliveries, the only observable ones; its state's
   hash, computed when a first sharer keeps the outcome; and its ACK
   matches, one per observation offset of a sharer with no awaiting
   deliveries, made when the first such sharer scores it. *)
type reduced = {
  outcome : Forward.outcome;
  primary : Forward.delivery list;
  mutable state_hash : int;
  mutable hashed : bool;
  mutable matches : matched list;
}

let reduce (o : Forward.outcome) =
  let primary (d : Forward.delivery) = Flow.equal d.packet.Packet.flow Flow.Primary in
  { outcome = o; primary = List.filter primary o.deliveries; state_hash = 0; hashed = false; matches = [] }

let state_hash r =
  if not r.hashed then begin
    r.state_hash <- Mstate.hash r.outcome.state;
    r.hashed <- true
  end;
  r.state_hash

let rec find_match offset = function
  | [] -> None
  | m :: rest -> if Mstate.same_float m.offset offset then Some m else find_match offset rest

(* The match of [r] for a sharer at [offset] carrying [awaiting]: made
   once per offset and kept on [r] when [awaiting] is empty, since it
   then depends only on the outcome, the ACKs and the offset. *)
let matched_of ~acks ~now ~condition ~offset awaiting r =
  match awaiting with
  | _ :: _ -> match_acks ~acks ~now ~condition ~offset (awaiting @ r.primary)
  | [] -> (
    match find_match offset r.matches with
    | Some m -> m
    | None ->
      let m = match_acks ~acks ~now ~condition ~offset r.primary in
      r.matches <- m :: r.matches;
      m)

(* lint:hotpath -- expand/score/compact runs per hypothesis per tick;
   ROADMAP hot-path program tracks its allocations *)
let step t ~sends ~acks ~now ~now_prio ~condition =
  let s = t.store in
  let n = store_size s in
  (* Hypotheses whose models share dynamics and whose states are equal
     share one run: [first.(i)] runs it, and keeps its reduced outcomes
     until [last.(first.(i))] has scored them. *)
  let run i =
    List.map reduce (Forward.run ?until_prio:now_prio s.prepared.(i) s.states.(i) ~sends ~until:now)
  in
  let first = shared_runs ~labels:s.labels ~hashes:s.hashes s.states in
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
  (* Compact on the fly: expanding thousands of hypotheses that each may
     fork hundreds of ways must not materialize the whole product before
     merging (under model misspecification the forking is at its worst
     exactly when every branch survives unconditioned). Absorbing a
     duplicate fork is a float write into its slot. Each hypothesis
     scores its run's outcomes in run order with its own model, offset
     and awaiting deliveries, hypotheses in index order. *)
  let slots = slots_create n in
  Utc_obs.Metrics.span ~name:"expand"
    ~now:(fun () -> now)
    (fun () ->
      for i = 0 to n - 1 do
        let model = s.prepared.(i) and awaiting = s.awaiting.(i) in
        let offset = t.obs_offset s.params.(i) in
        let params_hash = structural_hash s.params.(i) * 31 in
        let rest = ref (outcomes_of i) in
        while
          match !rest with
          | [] -> false
          | r :: tail ->
            rest := tail;
            let m = matched_of ~acks ~now ~condition ~offset awaiting r in
            let ll = score model m in
            if ll <> neg_infinity then begin
              let o = r.outcome in
              let logw = s.logw.(i) +. o.logw +. ll in
              if logw <> neg_infinity then begin
                let state_hash = state_hash r in
                absorb s slots ~parent:i ~state:o.state ~state_hash ~carried:m.carried
                  ~probe:(state_hash + params_hash + (m.carried_hash * 961))
                  logw
              end
            end;
            true
        do
          ()
        done
      done);
  Utc_obs.Metrics.span ~name:"compact"
    ~now:(fun () -> now)
    (fun () -> { t with store = compact t s slots; now })

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
  let fresh = normalize_store (store_of_seeds ~state:(anchor now) seeds) in
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
  (* Kept and fresh hypotheses are labelled together, so a fresh seed
     that shares dynamics with a kept hypothesis shares its label. *)
  let combined =
    if store_size kept = 0 then fresh
    else begin
      let prepared = Array.append kept.prepared fresh.prepared in
      {
        params = Array.append kept.params fresh.params;
        prepared;
        labels = Forward.dynamics_labels prepared;
        states = Array.append kept.states fresh.states;
        hashes = Array.append kept.hashes fresh.hashes;
        logw = Array.append kept.logw fresh.logw;
        awaiting = Array.append kept.awaiting fresh.awaiting;
      }
    end
  in
  let result = { t with store = sort_store (normalize_store combined); now } in
  Utc_obs.Metrics.incr reseeds_c;
  Utc_obs.Sink.record ~at:now
    (Utc_obs.Event.Belief_reseed
       { size = store_size result.store; keep = store_size kept });
  result

let fold t ~init ~f =
  let s = t.store in
  let acc = ref init in
  for i = 0 to store_size s - 1 do
    acc := f !acc ~params:s.params.(i) ~prepared:s.prepared.(i) ~state:s.states.(i) ~logw:s.logw.(i)
  done;
  !acc

let top t ~n = List.init (min n (store_size t.store)) (hyp_at t.store)

let size t = store_size t.store

let map_estimate t =
  match posterior t with
  | [] -> invalid_arg "Belief.map_estimate: empty belief"
  | best :: _ -> best
