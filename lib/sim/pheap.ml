(* Structure-of-arrays layout: keys live in three flat arrays (times is a
   flat float array since [Timebase.t = float]), payloads in a fourth.
   Insertion and removal move key scalars and payload slots in place —
   no per-entry record or option box is ever allocated. *)
type 'a t = {
  mutable times : Timebase.t array;
  mutable prios : int array;
  mutable ties : int array;
  mutable payloads : 'a array;
      (* [||] until the first [add]; grown with the first payload as the
         filler so slots beyond [size] always hold a value of type ['a].
         A freed slot is overwritten with a live payload on removal, so
         the heap retains at most one stale payload (the last one popped
         from a heap that drained to empty). *)
  mutable size : int;
  mutable next_tie : int;
}

let initial_capacity = 16

let create () =
  {
    times = Array.make initial_capacity Timebase.zero;
    prios = Array.make initial_capacity 0;
    ties = Array.make initial_capacity 0;
    payloads = [||];
    size = 0;
    next_tie = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* Same key order as the old record comparator: time, then priority
   class, then insertion sequence number. *)
let lt t i j =
  let c = Timebase.compare t.times.(i) t.times.(j) in
  if c <> 0 then c < 0
  else begin
    let c = Int.compare t.prios.(i) t.prios.(j) in
    if c <> 0 then c < 0 else t.ties.(i) < t.ties.(j)
  end

let swap t i j =
  let time = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- time;
  let prio = t.prios.(i) in
  t.prios.(i) <- t.prios.(j);
  t.prios.(j) <- prio;
  let tie = t.ties.(i) in
  t.ties.(i) <- t.ties.(j);
  t.ties.(j) <- tie;
  let payload = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- payload

let grow t payload =
  let cap = Array.length t.times in
  let cap' = if t.size = cap then 2 * cap else cap in
  if cap' <> cap then begin
    let times = Array.make cap' Timebase.zero in
    Array.blit t.times 0 times 0 t.size;
    t.times <- times;
    let prios = Array.make cap' 0 in
    Array.blit t.prios 0 prios 0 t.size;
    t.prios <- prios;
    let ties = Array.make cap' 0 in
    Array.blit t.ties 0 ties 0 t.size;
    t.ties <- ties
  end;
  if Array.length t.payloads < cap' then begin
    let payloads = Array.make cap' payload in
    Array.blit t.payloads 0 payloads 0 t.size;
    t.payloads <- payloads
  end

(* lint:hotpath *)
let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

(* lint:hotpath *)
let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && lt t left !smallest then smallest := left;
  if right < t.size && lt t right !smallest then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

(* lint:hotpath *)
let add ?(prio = 0) t ~time payload =
  if t.size = Array.length t.times || Array.length t.payloads <= t.size then grow t payload;
  t.times.(t.size) <- time;
  t.prios.(t.size) <- prio;
  t.ties.(t.size) <- t.next_tie;
  t.payloads.(t.size) <- payload;
  t.next_tie <- t.next_tie + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let top_time t =
  if t.size = 0 then invalid_arg "Pheap.top_time: empty heap";
  t.times.(0)

let top_payload t =
  if t.size = 0 then invalid_arg "Pheap.top_payload: empty heap";
  t.payloads.(0)

(* lint:hotpath *)
let drop_top t =
  if t.size = 0 then invalid_arg "Pheap.drop_top: empty heap";
  t.size <- t.size - 1;
  t.times.(0) <- t.times.(t.size);
  t.prios.(0) <- t.prios.(t.size);
  t.ties.(0) <- t.ties.(t.size);
  t.payloads.(0) <- t.payloads.(t.size);
  (* Cap retention: duplicate a live payload into the freed slot. *)
  t.payloads.(t.size) <- t.payloads.(0);
  if t.size > 0 then sift_down t 0

(* lint:hotpath *)
let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    let payload = t.payloads.(0) in
    drop_top t;
    Some (time, payload)
  end
