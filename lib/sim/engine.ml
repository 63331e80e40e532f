type handle = { mutable live : bool }

type event = { handle : handle; thunk : unit -> unit }

type t = { mutable clock : Timebase.t; queue : event Pheap.t; rng : Rng.t }

(* Telemetry counters (no-ops while Utc_obs.Metrics is disabled). The
   engine loop is strictly serial, so recording here keeps the metrics
   deterministic at any domain count. *)
let scheduled_c = Utc_obs.Metrics.counter "sim.engine.scheduled"
let cancelled_c = Utc_obs.Metrics.counter "sim.engine.cancelled"
let executed_c = Utc_obs.Metrics.counter "sim.engine.executed"

let create ?(seed = 1) () = { clock = Timebase.zero; queue = Pheap.create (); rng = Rng.create ~seed }
let now t = t.clock
let rng t = t.rng

let schedule ?(prio = 0) t ~at thunk =
  if Timebase.( <. ) at t.clock then
    invalid_arg
      (Format.asprintf "Engine.schedule: at=%a is before now=%a" Timebase.pp at Timebase.pp t.clock);
  let handle = { live = true } in
  Pheap.add ~prio t.queue ~time:at { handle; thunk };
  Utc_obs.Metrics.incr scheduled_c;
  handle

let schedule_after ?prio t ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule ?prio t ~at:(Timebase.add t.clock delay) thunk

let cancel handle =
  if handle.live then Utc_obs.Metrics.incr cancelled_c;
  handle.live <- false

(* lint:hotpath -- one iteration per simulated event; peeks the heap top
   in place instead of popping an option/tuple box *)
let step t =
  let rec loop () =
    if Pheap.is_empty t.queue then false
    else begin
      let time = Pheap.top_time t.queue in
      let { handle; thunk } = Pheap.top_payload t.queue in
      Pheap.drop_top t.queue;
      if handle.live then begin
        t.clock <- time;
        handle.live <- false;
        Utc_obs.Metrics.incr executed_c;
        thunk ();
        true
      end
      else loop ()
    end
  in
  loop ()

let run ?(until = Timebase.infinity) t =
  (* The root of each run's span tree: every instrumented phase below
     (wakeups, belief updates, fluid ticks, …) executes inside this
     extent, and the sim clock makes its sim-time the run's length. *)
  Utc_obs.Metrics.span ~name:"engine.run"
    ~now:(fun () -> t.clock)
    (fun () ->
      (* A cancelled event on top is dropped here, not by [step], which
         would run the next live event whatever its time. *)
      let rec loop () =
        if Pheap.is_empty t.queue then ()
        else if Timebase.( >. ) (Pheap.top_time t.queue) until then t.clock <- until
        else if not (Pheap.top_payload t.queue).handle.live then begin
          Pheap.drop_top t.queue;
          loop ()
        end
        else if step t then loop ()
      in
      loop ())

let pending t = Pheap.length t.queue
