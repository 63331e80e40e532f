(* One pass: every run of a workload, back to back on the calling domain.

   Each run is set up, then its engine is stepped one event at a time
   until a stop event queued at [until] in the last priority class
   fires, which executes exactly the events [Engine.run ~until] would.
   Each step that ran a sender decision is timed on its own, and so is
   each simulated second of stepping. Those times are scaled to the
   host's speed (see [Host]). *)

module W = Workloads

type steps = {
  decisions : Spans.Ibuf.t;  (** scaled ns of each decision step after the run's warm-up *)
  segments : Spans.Ibuf.t;  (** scaled ns of each [segment_s] of simulated time, run after run *)
  mutable decision_ns : int;  (** wall ns of those decision steps *)
  mutable warmup_decisions : int;
  mutable warmup_ns : int;
  mutable other : int;  (** steps that ran no sender decision *)
  mutable other_ns : int;
}

type pass = {
  runs : int;
  run_ns : int array;  (** stepping wall ns of each run *)
  run_heap_words : int array;  (** largest major heap seen during each run *)
  sim_seconds : float;
  steps : steps;
  minor_words : float;  (** set-up plus stepping *)
  digests : (string * string) list;  (** (run label, digest of its outputs), in order *)
  keys : (string * string) list;  (** (run label, digest of what the library reports) *)
}

let segment_s = 1.0

(* --- the host's speed ------------------------------------------------------

   The VM shares its physical cores with other tenants. While one of
   them runs beside it, every instruction stream here slows, by up to
   2x, for seconds to minutes at a time, and neither the steal counter
   nor the process's CPU time shows it. Wall time alone cannot tell that
   from a slower program, so the benchmark measures the host as it goes:
   it times a fixed reference kernel at fixed points of each pass, and
   each step's wall time is scaled by [nominal_ns] over the median of
   the last three kernel times. The kernel does what the workloads do
   most, allocating short-lived lists of floats and looking keys up in a
   hash table, so it slows as they do. It calls nothing in the library,
   so no change to the library changes it. *)
module Host = struct
  let table : (int, float * int) Hashtbl.t = Hashtbl.create 4096

  let () =
    for k = 0 to 4095 do
      Hashtbl.replace table k (float_of_int k, k)
    done

  let kernel () =
    let acc = ref 0.0 in
    for i = 0 to 999 do
      let k = (i * 7919) land 4095 in
      let l = [ float_of_int i; float_of_int k; 0.5 ] in
      acc := !acc +. List.fold_left ( +. ) 0.0 (Sys.opaque_identity l);
      match Hashtbl.find_opt table ((k * 31) land 4095) with
      | Some (x, j) -> acc := !acc +. (x *. float_of_int j)
      | None -> ()
    done;
    ignore (Sys.opaque_identity !acc)

  (* The kernel's time on a 2-core x86-64 VM while no other tenant
     shared its cores, so scaled times read as wall times there. *)
  let nominal_ns = 40_000.0
  let recent = Array.make 3 nominal_ns
  let next = ref 0
  let factor = ref 1.0
  let count = ref 0
  let factor_sum = ref 0.0

  (* Minor words the kernel allocated, so a pass can leave them out. *)
  let words = ref 0.0

  (* A warm-up call first, so the timed call finds the table in cache
     whatever the workload did before it. *)
  let sample () =
    let w0 = Gc.minor_words () in
    kernel ();
    let t0 = Spans.now_ns () in
    kernel ();
    recent.(!next) <- float_of_int (Spans.now_ns () - t0);
    next := (!next + 1) mod 3;
    let a = recent.(0) and b = recent.(1) and c = recent.(2) in
    factor := Float.max (Float.min a b) (Float.min (Float.max a b) c) /. nominal_ns;
    incr count;
    factor_sum := !factor_sum +. !factor;
    words := !words +. (Gc.minor_words () -. w0)

  let refresh () =
    for _ = 1 to 3 do
      sample ()
    done

  let scale ns = int_of_float (Float.round (float_of_int ns /. !factor))
end

(* The major heap is sampled at the end of every major cycle and at every
   segment boundary; [heap_peak] is the largest sample since it was last
   reset. *)
let heap_words () = (Gc.quick_stat ()).Gc.heap_words
let heap_peak = ref 0
let sample_heap () = heap_peak := max !heap_peak (heap_words ())
let _alarm : Gc.alarm = Gc.create_alarm sample_heap

(* [host] is the pass's host-sampling schedule: the simulated time,
   counted over the whole pass, between kernel samples, and when the
   next is due. A schedule in simulated time samples at the same points
   in every replay, so the kernel's allocations, and with them the
   pass's minor collections, major heap and minor words, repeat exactly
   whatever the host's speed. *)
type host_schedule = {
  every : float;
  mutable next_at : float;
}

let drive (probe : W.probe) steps ~engine ~until ~warmup_s ~host ~sim_offset =
  let stopped = ref false in
  ignore (Utc_sim.Engine.schedule ~prio:max_int engine ~at:until (fun () -> stopped := true));
  let spans = probe.W.spans and traced = probe.W.traced in
  let last = ref (Spans.now_ns ()) in
  let segment_end = ref segment_s and segment_ns = ref 0 in
  let go = ref true in
  while !go do
    probe.W.woke <- false;
    if traced then Spans.step_begin spans ~at:!last;
    if Utc_sim.Engine.step engine && not !stopped then begin
      let t = Spans.now_ns () in
      let dt = t - !last in
      let scaled = Host.scale dt in
      let now = Utc_sim.Engine.now engine in
      if not probe.W.woke then begin
        steps.other <- steps.other + 1;
        steps.other_ns <- steps.other_ns + dt
      end
      else if now >= warmup_s then begin
        Spans.Ibuf.push steps.decisions scaled;
        steps.decision_ns <- steps.decision_ns + dt
      end
      else begin
        steps.warmup_decisions <- steps.warmup_decisions + 1;
        steps.warmup_ns <- steps.warmup_ns + dt
      end;
      if traced then Spans.step_end spans ~at:t ~woke:probe.W.woke;
      segment_ns := !segment_ns + scaled;
      let boundary = now >= !segment_end in
      if boundary then begin
        Spans.Ibuf.push steps.segments !segment_ns;
        segment_ns := 0;
        segment_end := (Float.floor (now /. segment_s) +. 1.0) *. segment_s;
        sample_heap ()
      end;
      let due = sim_offset +. now >= host.next_at in
      if due then begin
        Host.sample ();
        host.next_at <- (Float.floor ((sim_offset +. now) /. host.every) +. 1.0) *. host.every
      end;
      (* Neither sample is charged to the next step. *)
      if due || boundary then last := Spans.now_ns () else last := t
    end
    else go := false
  done;
  Spans.Ibuf.push steps.segments !segment_ns;
  if traced then Spans.step_end spans ~at:(Spans.now_ns ()) ~woke:false

let digest s = Digest.to_hex (Digest.string s)

(* A pass starts after a full major collection, which also empties the
   minor heap. Replays of a pass then allocate from the same point, so
   their minor collections fall in the same decisions and each
   decision's median time is that of the same work. The host is sampled
   [host_samples] times, evenly over the pass's simulated time. *)
let run_pass probe ~host_samples (runs : W.run list) =
  Gc.full_major ();
  Host.refresh ();
  let sim_seconds = List.fold_left (fun acc (r : W.run) -> acc +. r.W.sim_seconds) 0.0 runs in
  let every = sim_seconds /. float_of_int host_samples in
  let host = { every; next_at = every } in
  let sim_offset = ref 0.0 in
  let steps =
    {
      decisions = Spans.Ibuf.create ();
      segments = Spans.Ibuf.create ();
      decision_ns = 0;
      warmup_decisions = 0;
      warmup_ns = 0;
      other = 0;
      other_ns = 0;
    }
  in
  let run_ns = Array.make (List.length runs) 0 in
  let run_heap_words = Array.make (List.length runs) 0 in
  let words = ref 0.0 in
  let outputs =
    List.mapi
      (fun id (r : W.run) ->
        Spans.set_run probe.W.spans id;
        heap_peak := heap_words ();
        let w0 = Gc.minor_words () -. !Host.words in
        let t0 = Spans.now_ns () in
        let sp = if probe.W.traced then Spans.enter probe.W.spans "setup" ~at:t0 else -1 in
        let inst = r.W.build probe in
        let t1 = Spans.now_ns () in
        if probe.W.traced then Spans.leave probe.W.spans sp ~at:t1;
        drive probe steps ~engine:inst.W.i_engine ~until:inst.W.i_until ~warmup_s:r.W.warmup_s
          ~host ~sim_offset:!sim_offset;
        sim_offset := !sim_offset +. r.W.sim_seconds;
        run_ns.(id) <- Spans.now_ns () - t1;
        words := !words +. (Gc.minor_words () -. !Host.words -. w0);
        sample_heap ();
        run_heap_words.(id) <- !heap_peak;
        let full, key = inst.W.outputs () in
        (r.W.label, (digest full, digest key)))
      runs
  in
  {
    runs = List.length runs;
    run_ns;
    run_heap_words;
    sim_seconds;
    steps;
    minor_words = !words;
    digests = List.map (fun (l, (d, _)) -> (l, d)) outputs;
    keys = List.map (fun (l, (_, k)) -> (l, k)) outputs;
  }

(* Set-up only: build every run's inputs and drop them; scaled ns. Each
   repetition starts after a full major collection, so none pays for the
   garbage of the one before. *)
let setup_only (runs : W.run list) =
  let probe = W.probe ~traced:false () in
  Gc.full_major ();
  Host.refresh ();
  let t0 = Spans.now_ns () in
  List.iter (fun (r : W.run) -> ignore (r.W.build probe : W.instance)) runs;
  Host.scale (Spans.now_ns () - t0)

let seconds ns = float_of_int ns *. 1e-9
let total a = Array.fold_left ( + ) 0 a

(* The [q]-quantile, in microseconds, of durations in ns. *)
let quantile_us d q =
  let d = Array.copy d in
  Array.sort Float.compare d;
  Stats.percentile_sorted d q /. 1e3

(* Replays of a pass are the same computation: the same runs take the
   same decisions in the same order, and each simulated second holds the
   same steps. Each segment and each decision is timed, scaled, once per
   replay, and its time is the median of them, which no single slow
   spell or misread kernel sample moves. *)
let median_across (passes : pass list) (get : pass -> int array) =
  match List.map get passes with
  | [] -> [||]
  | first :: _ as all ->
    let n = List.fold_left (fun acc c -> min acc (Array.length c)) (Array.length first) all in
    Array.init n (fun i -> Stats.median (List.map (fun c -> float_of_int c.(i)) all))

let replayed_sim_per_wall passes =
  let segment_s = median_across passes (fun p -> Spans.Ibuf.contents p.steps.segments) in
  (List.hd passes).sim_seconds /. (Array.fold_left ( +. ) 0.0 segment_s *. 1e-9)

let replayed_decision_quantiles passes =
  let d = median_across passes (fun p -> Spans.Ibuf.contents p.steps.decisions) in
  (quantile_us d 0.5, quantile_us d 0.99)

(* The median over a pass's runs of each run's largest major heap. A
   maximum over runs would follow the rare run whose belief stays large:
   over ten policy seeds it ranged from 45 to 100 MiB. *)
let run_heap_mb p =
  Stats.median
    (Array.to_list
       (Array.map
          (fun w -> float_of_int (w * (Sys.word_size / 8)) /. 1048576.0)
          p.run_heap_words))
