(* Fixed-size domain pool with deterministic work partitioning.

   Work is split into contiguous index chunks and results are merged back
   in index order, so a [map] is a pure function of its inputs: the answer
   never depends on how many domains exist or which domain ran which
   chunk. Chunks are *assigned* dynamically (a shared queue), which is
   safe because every result lands in its own pre-allocated slot.

   The caller participates: it dispatches every chunk but the last, runs
   the last (possibly short) chunk itself and then drains the queue, so a
   pool of [domains = n] spawns only [n - 1] worker domains and the
   calling domain is never idle. Nested maps (a worker whose job itself
   calls [map]) are supported for the same reason: the nested caller
   drains the shared queue, so every chunk it waits on is either run by
   itself or already executing on another domain. *)

type job = unit -> unit

type t = {
  domains : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  queue : job Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let domains t = t.domains
let recommended () = Domain.recommended_domain_count ()

let next_job t =
  Mutex.lock t.mutex;
  let rec wait () =
    match Queue.take_opt t.queue with
    | Some job ->
      Mutex.unlock t.mutex;
      Some job
    | None ->
      if t.closed then begin
        Mutex.unlock t.mutex;
        None
      end
      else begin
        Condition.wait t.work_ready t.mutex;
        wait ()
      end
  in
  wait ()

let rec worker_loop t =
  match next_job t with
  | Some job ->
    job ();
    worker_loop t
  | None -> ()

(* Take a job if one is queued; never blocks. *)
let steal_job t =
  Mutex.lock t.mutex;
  let job = Queue.take_opt t.queue in
  Mutex.unlock t.mutex;
  job

(* The caller dispatches chunks [0 .. chunks-2] and runs the *last*
   chunk — the short one when [chunk] does not divide [n] — itself,
   first: dispatched work starts flowing to the workers immediately and
   the caller is never the domain holding the longest remainder (which
   would serialize small maps behind a full chunk). *)
let pooled_map t ~chunk ~f arr =
  let n = Array.length arr in
  let results = Array.make n None in
  let chunks = (n + chunk - 1) / chunk in
  let remaining = Atomic.make chunks in
  let failed = Atomic.make (-1) in
  let errors = Array.make chunks None in
  let latch_mutex = Mutex.create () in
  let latch_done = Condition.create () in
  let job ci () =
    let lo = ci * chunk in
    let hi = min n (lo + chunk) in
    (try
       for j = lo to hi - 1 do
         results.(j) <- Some (f arr.(j))
       done
     with e ->
       errors.(ci) <- Some e;
       (* Remember the lowest failed chunk so the caller re-raises the
          same exception the serial left-to-right map would have. *)
       let rec note () =
         let seen = Atomic.get failed in
         if (seen = -1 || ci < seen) && not (Atomic.compare_and_set failed seen ci) then
           note ()
       in
       note ());
    if Atomic.fetch_and_add remaining (-1) = 1 then begin
      Mutex.lock latch_mutex;
      Condition.signal latch_done;
      Mutex.unlock latch_mutex
    end
  in
  Mutex.lock t.mutex;
  for ci = 0 to chunks - 2 do
    Queue.add (job ci) t.queue
  done;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  job (chunks - 1) ();
  let rec drain () =
    match steal_job t with
    | Some job ->
      job ();
      drain ()
    | None -> ()
  in
  drain ();
  Mutex.lock latch_mutex;
  while Atomic.get remaining > 0 do
    Condition.wait latch_done latch_mutex
  done;
  Mutex.unlock latch_mutex;
  (match Atomic.get failed with
  | -1 -> ()
  | ci -> (
    match errors.(ci) with
    | Some e -> raise e
    | None -> assert false));
  Array.map
    (function
      | Some v -> v
      | None -> assert false)
    results

let create ~domains () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      domains;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
    }
  in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.closed <- true;
  t.workers <- [];
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let with_pool ~domains f =
  let t = create ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map_array ?chunk t ~f arr =
  let n = Array.length arr in
  let chunk =
    match chunk with
    | Some c when c >= 1 -> c
    | Some _ -> invalid_arg "Pool.map_array: chunk must be >= 1"
    | None -> max 1 ((n + t.domains - 1) / t.domains)
  in
  if n = 0 then [||]
  else if t.domains = 1 || n <= chunk then Array.map f arr
  else pooled_map t ~chunk ~f arr

let map_list ?chunk t ~f items =
  match items with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ :: _ :: _ -> Array.to_list (map_array ?chunk t ~f (Array.of_list items))

(* --- default pool, sized by UTC_DOMAINS --- *)

(* More domains than the hardware recommends only oversubscribe it: four
   domains on a 2-CPU host ran the harness sweep slower than serial.
   OCaml 5.1 also refuses to spawn past 128 domains. *)
let capped domains = min domains (recommended ())

let env_domains () =
  match Sys.getenv_opt "UTC_DOMAINS" with
  | None -> recommended ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> capped n
    | Some _ | None ->
      invalid_arg (Printf.sprintf "UTC_DOMAINS must be a positive integer, got %S" s))

let default_mutex = Mutex.create ()
let default_pool = ref None

let default () =
  Mutex.protect default_mutex (fun () ->
      match !default_pool with
      | Some pool -> pool
      | None ->
        let pool = create ~domains:(env_domains ()) () in
        default_pool := Some pool;
        pool)

let set_default_domains domains =
  if domains < 1 then invalid_arg "Pool.set_default_domains: domains must be >= 1";
  let previous =
    Mutex.protect default_mutex (fun () ->
        let previous = !default_pool in
        default_pool := Some (create ~domains:(capped domains) ());
        previous)
  in
  Option.iter shutdown previous

let default_domains () =
  Mutex.protect default_mutex (fun () ->
      match !default_pool with
      | Some pool -> pool.domains
      | None -> env_domains ())
