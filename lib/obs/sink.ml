type recorded = {
  at : float;
  seq : int;
  flow : string option;
  run : string option;
  event : Event.t;
}

type t = {
  mutable capacity : int;
  queue : recorded Queue.t;
  mutable next_seq : int;
  mutable dropped : int;
  lock : Mutex.t;
}

let default_capacity = 65_536

let make capacity =
  { capacity; queue = Queue.create (); next_seq = 0; dropped = 0; lock = Mutex.create () }

(* The process-wide journal: the default handle for every caller that
   does not opt into a private per-run sink. *)
let global = make default_capacity

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  make capacity

let enabled_flag = ref false
let enabled () = !enabled_flag

(* Ambient routing: [with_run] pins a private handle (plus its run label)
   to the executing domain for the dynamic extent of one pooled job.
   Domain-local state is exactly right here — the binding must travel
   with the job, not the process — and per Dls's contract it carries
   routing only: which journal an event lands in, never a value a result
   depends on. *)
let scope_key : (t * string) option Utc_parallel.Dls.key =
  Utc_parallel.Dls.new_key (fun () -> None)

let with_run ~run handle f =
  let prev = Utc_parallel.Dls.get scope_key in
  Utc_parallel.Dls.set scope_key (Some (handle, run));
  Fun.protect ~finally:(fun () -> Utc_parallel.Dls.set scope_key prev) f

let run_label () = Option.map snd (Utc_parallel.Dls.get scope_key)

let reset_handle h =
  Mutex.lock h.lock;
  Queue.clear h.queue;
  h.next_seq <- 0;
  h.dropped <- 0;
  Mutex.unlock h.lock

let reset () = reset_handle global

(* Discards the oldest events, counting each as dropped, until at most
   [room] remain. Call with [h.lock] held. *)
let trim h ~room =
  while Queue.length h.queue > room do
    ignore (Queue.pop h.queue);
    h.dropped <- h.dropped + 1
  done

let enable ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Sink.enable: capacity must be positive";
  Mutex.lock global.lock;
  global.capacity <- capacity;
  trim global ~room:capacity;
  Mutex.unlock global.lock;
  enabled_flag := true

let disable () = enabled_flag := false

let push h ?flow ?run ~at event =
  Mutex.lock h.lock;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  trim h ~room:(h.capacity - 1);
  Queue.push { at; seq; flow; run; event } h.queue;
  Mutex.unlock h.lock

let record ?flow ~at event =
  if !enabled_flag then begin
    let handle, run =
      match Utc_parallel.Dls.get scope_key with
      | Some (handle, run) -> (handle, Some run)
      | None -> (global, None)
    in
    push handle ?flow ?run ~at event
  end

let events_of h =
  Mutex.lock h.lock;
  let es = List.of_seq (Queue.to_seq h.queue) in
  Mutex.unlock h.lock;
  es

let events () = events_of global

let stats_of h =
  Mutex.lock h.lock;
  let s = (Queue.length h.queue, h.dropped) in
  Mutex.unlock h.lock;
  s

let stats () = stats_of global

let capacity () =
  Mutex.lock global.lock;
  let c = global.capacity in
  Mutex.unlock global.lock;
  c

let absorb h =
  Mutex.lock h.lock;
  let es = List.of_seq (Queue.to_seq h.queue) in
  let carried_drops = h.dropped in
  Queue.clear h.queue;
  h.next_seq <- 0;
  h.dropped <- 0;
  Mutex.unlock h.lock;
  Mutex.lock global.lock;
  global.dropped <- global.dropped + carried_drops;
  List.iter
    (fun r ->
      let seq = global.next_seq in
      global.next_seq <- seq + 1;
      trim global ~room:(global.capacity - 1);
      Queue.push { r with seq } global.queue)
    es;
  Mutex.unlock global.lock
