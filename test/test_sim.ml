(* Tests for the discrete-event substrate: time, RNG, heap, engine,
   persistent queue. *)
open Utc_sim

let check_float = Alcotest.(check (float 1e-12))

(* --- Timebase --- *)

let timebase_units () =
  check_float "ms" 0.25 (Timebase.of_ms 250.0);
  check_float "to ms" 250.0 (Timebase.to_ms 0.25);
  check_float "us" 0.0005 (Timebase.of_us 500.0);
  check_float "to us" 500.0 (Timebase.to_us 0.0005)

let timebase_compare () =
  Alcotest.(check bool) "lt" true Timebase.(1.0 <. 2.0);
  Alcotest.(check bool) "le eq" true Timebase.(2.0 <=. 2.0);
  Alcotest.(check bool) "gt" true Timebase.(3.0 >. 2.0);
  Alcotest.(check int) "compare" 0 (Timebase.compare 5.0 5.0);
  check_float "min" 1.0 (Timebase.min 1.0 2.0);
  check_float "max" 2.0 (Timebase.max 1.0 2.0)

let timebase_quantize () =
  Alcotest.(check int) "exact tick" 1000 (Timebase.quantize ~tick:0.001 1.0);
  Alcotest.(check int) "round down" 999 (Timebase.quantize ~tick:0.001 0.9994);
  Alcotest.(check int) "round up" 1000 (Timebase.quantize ~tick:0.001 0.9996);
  Alcotest.(check bool) "close" true (Timebase.close ~tol:1e-6 1.0 (1.0 +. 1e-7));
  Alcotest.(check bool) "not close" false (Timebase.close ~tol:1e-6 1.0 (1.0 +. 1e-5))

(* --- Rng --- *)

let rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let rng_float_range () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of range: %g" x
  done

let rng_uniform_moments () =
  let rng = Rng.create ~seed:5 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform rng ~lo:2.0 ~hi:4.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 3.0) > 0.02 then Alcotest.failf "uniform mean off: %g" mean

let rng_int_bounds () =
  let rng = Rng.create ~seed:11 in
  let counts = Array.make 7 0 in
  for _ = 1 to 70_000 do
    let k = Rng.int rng ~bound:7 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 9_000 || c > 11_000 then Alcotest.failf "bucket %d skewed: %d" i c)
    counts

let rng_bernoulli_rate () =
  let rng = Rng.create ~seed:13 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.2 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if Float.abs (rate -. 0.2) > 0.005 then Alcotest.failf "bernoulli rate off: %g" rate

let rng_exponential_mean () =
  let rng = Rng.create ~seed:17 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential rng ~mean:4.0 in
    if x < 0.0 then Alcotest.fail "negative exponential";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 4.0) > 0.1 then Alcotest.failf "exponential mean off: %g" mean

let rng_split_independence () =
  let parent = Rng.create ~seed:19 in
  let a = Rng.split parent in
  let b = Rng.split parent in
  (* Streams from two splits should not be identical. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check int) "no collisions" 0 !same

let rng_copy () =
  let a = Rng.create ~seed:23 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let rng_shuffle_permutes () =
  let rng = Rng.create ~seed:29 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* --- Pheap --- *)

let pheap_ordering () =
  let h = Pheap.create () in
  Pheap.add h ~time:3.0 "c";
  Pheap.add h ~time:1.0 "a";
  Pheap.add h ~time:2.0 "b";
  let order = List.map snd (Pheap.to_list h) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order

let pheap_tie_break_insertion () =
  let h = Pheap.create () in
  Pheap.add h ~time:1.0 "first";
  Pheap.add h ~time:1.0 "second";
  Pheap.add h ~time:1.0 "third";
  let order = List.map snd (Pheap.to_list h) in
  Alcotest.(check (list string)) "insertion order at ties" [ "first"; "second"; "third" ] order

let pheap_priority_classes () =
  let h = Pheap.create () in
  Pheap.add ~prio:1 h ~time:1.0 "arrival";
  Pheap.add ~prio:(-10) h ~time:1.0 "complete";
  Pheap.add ~prio:(-20) h ~time:1.0 "gate";
  Pheap.add ~prio:10 h ~time:1.0 "wakeup";
  let order = List.map snd (Pheap.to_list h) in
  Alcotest.(check (list string))
    "canonical same-instant order"
    [ "gate"; "complete"; "arrival"; "wakeup" ]
    order

let pheap_pop_empties () =
  let h = Pheap.create () in
  Pheap.add h ~time:1.0 1;
  Alcotest.(check int) "length" 1 (Pheap.length h);
  let _ = Pheap.pop h in
  Alcotest.(check bool) "empty" true (Pheap.is_empty h);
  Alcotest.(check bool) "pop on empty" true (Pheap.pop h = None)

let pheap_min_time () =
  let h = Pheap.create () in
  Alcotest.(check bool) "none" true (Pheap.min_time h = None);
  Pheap.add h ~time:5.0 ();
  Pheap.add h ~time:2.0 ();
  Alcotest.(check bool) "min" true (Pheap.min_time h = Some 2.0)

let pheap_clear () =
  let h = Pheap.create () in
  for i = 1 to 20 do
    Pheap.add h ~time:(float_of_int i) i
  done;
  Pheap.clear h;
  Alcotest.(check int) "cleared" 0 (Pheap.length h)

let pheap_peek () =
  let h = Pheap.create () in
  Alcotest.check_raises "top_time on empty" (Invalid_argument "Pheap.top_time: empty heap")
    (fun () -> ignore (Pheap.top_time h));
  Alcotest.check_raises "top_payload on empty"
    (Invalid_argument "Pheap.top_payload: empty heap") (fun () ->
      ignore (Pheap.top_payload h));
  Alcotest.check_raises "drop_top on empty" (Invalid_argument "Pheap.drop_top: empty heap")
    (fun () -> Pheap.drop_top h);
  Pheap.add h ~time:2.0 "b";
  Pheap.add h ~time:1.0 "a";
  Alcotest.(check (float 0.0)) "top_time peeks" 1.0 (Pheap.top_time h);
  Alcotest.(check string) "top_payload peeks" "a" (Pheap.top_payload h);
  Alcotest.(check int) "peeking removes nothing" 2 (Pheap.length h);
  Pheap.drop_top h;
  Alcotest.(check string) "drop_top advances" "b" (Pheap.top_payload h);
  Pheap.drop_top h;
  Alcotest.(check bool) "drained" true (Pheap.is_empty h)

let pheap_peek_equals_pop_prop =
  (* Draining via the allocation-free peek API visits exactly the
     sequence [pop] returns — same keys, same payloads, same order. *)
  QCheck.Test.make ~name:"pheap peek/drop drain equals pop drain" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.0) (int_range (-3) 3)))
    (fun entries ->
      let fill () =
        let h = Pheap.create () in
        List.iteri (fun i (time, prio) -> Pheap.add ~prio h ~time i) entries;
        h
      in
      let rec pop_drain h acc =
        match Pheap.pop h with
        | None -> List.rev acc
        | Some pair -> pop_drain h (pair :: acc)
      in
      let rec peek_drain h acc =
        if Pheap.is_empty h then List.rev acc
        else begin
          let pair = (Pheap.top_time h, Pheap.top_payload h) in
          Pheap.drop_top h;
          peek_drain h (pair :: acc)
        end
      in
      pop_drain (fill ()) [] = peek_drain (fill ()) [])

let pheap_sorted_prop =
  QCheck.Test.make ~name:"pheap drains keys in nondecreasing order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.0) small_int))
    (fun entries ->
      let h = Pheap.create () in
      List.iter (fun (time, prio) -> Pheap.add ~prio h ~time ()) entries;
      let keys = List.map fst (Pheap.to_list h) in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | [ _ ] | [] -> true
      in
      nondecreasing keys && List.length keys = List.length entries)

(* --- Engine --- *)

let engine_runs_in_order () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule engine ~at:2.0 (fun () -> log := "b" :: !log));
  ignore (Engine.schedule engine ~at:1.0 (fun () -> log := "a" :: !log));
  ignore (Engine.schedule engine ~at:3.0 (fun () -> log := "c" :: !log));
  Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3.0 (Engine.now engine)

let engine_until_stops () =
  let engine = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule engine ~at:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run ~until:5.5 engine;
  Alcotest.(check int) "events before until" 5 !count;
  check_float "clock parked at until" 5.5 (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "resumes" 10 !count

let engine_cancel () =
  let engine = Engine.create () in
  let hit = ref false in
  let handle = Engine.schedule engine ~at:1.0 (fun () -> hit := true) in
  Engine.cancel handle;
  Alcotest.(check bool) "cancelled flag" true (Engine.is_cancelled handle);
  Engine.run engine;
  Alcotest.(check bool) "did not run" false !hit

let engine_schedule_in_past_rejected () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:5.0 (fun () -> ()));
  Engine.run engine;
  Alcotest.check_raises "past is invalid" (Invalid_argument "Engine.schedule: at=1.000s is before now=5.000s")
    (fun () -> ignore (Engine.schedule engine ~at:1.0 (fun () -> ())))

let engine_schedule_after () =
  let engine = Engine.create () in
  let at = ref 0.0 in
  ignore
    (Engine.schedule engine ~at:2.0 (fun () ->
         ignore (Engine.schedule_after engine ~delay:3.0 (fun () -> at := Engine.now engine))));
  Engine.run engine;
  check_float "relative delay" 5.0 !at

let engine_nested_same_time () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule engine ~at:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule engine ~at:1.0 (fun () -> log := "inner" :: !log))));
  ignore (Engine.schedule engine ~at:1.0 (fun () -> log := "peer" :: !log));
  Engine.run engine;
  Alcotest.(check (list string)) "inner after peers" [ "outer"; "peer"; "inner" ] (List.rev !log)

let engine_step () =
  let engine = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule engine ~at:1.0 (fun () -> incr count));
  ignore (Engine.schedule engine ~at:2.0 (fun () -> incr count));
  Alcotest.(check bool) "step true" true (Engine.step engine);
  Alcotest.(check int) "one ran" 1 !count;
  Alcotest.(check bool) "step true" true (Engine.step engine);
  Alcotest.(check bool) "exhausted" false (Engine.step engine)

(* --- Fqueue --- *)

let fqueue_fifo () =
  let q = Utc_sim.Fqueue.(push 3 (push 2 (push 1 empty))) in
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (Utc_sim.Fqueue.to_list q);
  Alcotest.(check int) "head" 1 (Utc_sim.Fqueue.head q);
  Alcotest.(check (list int)) "after drop" [ 2; 3 ] (Utc_sim.Fqueue.to_list (Utc_sim.Fqueue.drop q));
  Alcotest.check_raises "head of empty" (Invalid_argument "Fqueue.head: empty queue") (fun () ->
      ignore (Utc_sim.Fqueue.head Utc_sim.Fqueue.empty));
  Alcotest.check_raises "drop of empty" (Invalid_argument "Fqueue.drop: empty queue") (fun () ->
      ignore (Utc_sim.Fqueue.drop Utc_sim.Fqueue.empty))

let fqueue_model_prop =
  QCheck.Test.make ~name:"fqueue behaves like a list queue" ~count:300
    QCheck.(list (option small_int))
    (fun ops ->
      (* Some n = push n; None = head and drop. Compare against a list
         model. *)
      let q = ref Utc_sim.Fqueue.empty in
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | Some n ->
            q := Utc_sim.Fqueue.push n !q;
            model := !model @ [ n ]
          | None -> (
            match Utc_sim.Fqueue.is_empty !q, !model with
            | true, [] -> ()
            | false, m :: rest when Utc_sim.Fqueue.head !q = m ->
              q := Utc_sim.Fqueue.drop !q;
              model := rest
            | _ -> raise Exit))
        ops;
      Utc_sim.Fqueue.to_list !q = !model
      && Utc_sim.Fqueue.length !q = List.length !model
      && (match !model with
         | [] -> Utc_sim.Fqueue.is_empty !q
         | m :: _ -> Utc_sim.Fqueue.head !q = m))

let suite =
  [
    ("timebase units", `Quick, timebase_units);
    ("timebase compare", `Quick, timebase_compare);
    ("timebase quantize", `Quick, timebase_quantize);
    ("rng deterministic", `Quick, rng_deterministic);
    ("rng seed sensitivity", `Quick, rng_seed_sensitivity);
    ("rng float range", `Quick, rng_float_range);
    ("rng uniform moments", `Quick, rng_uniform_moments);
    ("rng int bounds", `Quick, rng_int_bounds);
    ("rng bernoulli rate", `Quick, rng_bernoulli_rate);
    ("rng exponential mean", `Quick, rng_exponential_mean);
    ("rng split independence", `Quick, rng_split_independence);
    ("rng copy", `Quick, rng_copy);
    ("rng shuffle permutes", `Quick, rng_shuffle_permutes);
    ("pheap ordering", `Quick, pheap_ordering);
    ("pheap tie break", `Quick, pheap_tie_break_insertion);
    ("pheap priority classes", `Quick, pheap_priority_classes);
    ("pheap pop empties", `Quick, pheap_pop_empties);
    ("pheap min time", `Quick, pheap_min_time);
    ("pheap clear", `Quick, pheap_clear);
    ("pheap peek api", `Quick, pheap_peek);
    QCheck_alcotest.to_alcotest pheap_peek_equals_pop_prop;
    QCheck_alcotest.to_alcotest pheap_sorted_prop;
    ("engine order", `Quick, engine_runs_in_order);
    ("engine until", `Quick, engine_until_stops);
    ("engine cancel", `Quick, engine_cancel);
    ("engine rejects past", `Quick, engine_schedule_in_past_rejected);
    ("engine schedule_after", `Quick, engine_schedule_after);
    ("engine nested same time", `Quick, engine_nested_same_time);
    ("engine step", `Quick, engine_step);
    ("fqueue fifo", `Quick, fqueue_fifo);
    QCheck_alcotest.to_alcotest fqueue_model_prop;
  ]

(* --- additional edge cases --- *)

let timebase_pp () =
  Alcotest.(check string) "format" "12.345s" (Format.asprintf "%a" Timebase.pp 12.3451);
  Alcotest.(check string) "zero" "0.000s" (Format.asprintf "%a" Timebase.pp Timebase.zero)

let timebase_sentinel () =
  Alcotest.(check bool) "infinity is later than everything" true
    Timebase.(1e12 <. Timebase.infinity);
  Alcotest.(check (float 0.0)) "add/sub" 1.5 (Timebase.add 1.0 (Timebase.sub 1.0 0.5))

let rng_pick_uniformish () =
  let rng = Rng.create ~seed:41 in
  let arr = [| 0; 1; 2 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let k = Rng.pick rng arr in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter (fun c -> if c < 9_000 || c > 11_000 then Alcotest.failf "pick skew: %d" c) counts

let engine_handle_dead_after_run () =
  let engine = Engine.create () in
  let handle = Engine.schedule engine ~at:1.0 (fun () -> ()) in
  Alcotest.(check bool) "live before" false (Engine.is_cancelled handle);
  Engine.run engine;
  Alcotest.(check bool) "dead after running" true (Engine.is_cancelled handle);
  (* Cancelling an executed event is a harmless no-op. *)
  Engine.cancel handle

let engine_negative_delay_rejected () =
  let engine = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      ignore (Engine.schedule_after engine ~delay:(-1.0) (fun () -> ())))

let engine_pending_counts () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:1.0 (fun () -> ()));
  let cancelled = Engine.schedule engine ~at:2.0 (fun () -> ()) in
  Engine.cancel cancelled;
  Alcotest.(check int) "both queued (one dead)" 2 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "drained" 0 (Engine.pending engine)

let pheap_negative_priorities () =
  let h = Pheap.create () in
  Pheap.add ~prio:5 h ~time:1.0 "late";
  Pheap.add ~prio:(-5) h ~time:1.0 "early";
  Alcotest.(check bool) "negative prio first" true
    (List.map snd (Pheap.to_list h) = [ "early"; "late" ])

let fqueue_of_list_order () =
  let q = Utc_sim.Fqueue.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "head is front" 1 (Utc_sim.Fqueue.head q);
  Alcotest.(check int) "fold front to back" 123
    (Utc_sim.Fqueue.fold (fun acc x -> (acc * 10) + x) 0 q)

(* [equal] compares contents front to back, whatever the front/back
   split: a queue built from [of_list] of its first [k] elements and
   pushes of the rest holds its front in order and its back reversed. *)
let fqueue_equal_prop =
  let module Fqueue = Utc_sim.Fqueue in
  let build zs k =
    let k = k mod (List.length zs + 1) in
    List.fold_left
      (fun q z -> Fqueue.push z q)
      (Fqueue.of_list (List.filteri (fun i _ -> i < k) zs))
      (List.filteri (fun i _ -> i >= k) zs)
  in
  QCheck.Test.make ~name:"fqueue equal ignores the front/back split" ~count:500
    QCheck.(
      quad
        (list_of_size Gen.(0 -- 7) (int_bound 2))
        (list_of_size Gen.(0 -- 7) (int_bound 2))
        (pair small_nat small_nat) bool)
    (fun (xs, ys, (ka, kb), same) ->
      let ys = if same then xs else ys in
      let a = build xs ka and b = build ys kb in
      Bool.equal (Fqueue.equal Int.equal a b) (List.equal Int.equal xs ys)
      && Bool.equal (Fqueue.equal Int.equal b a) (List.equal Int.equal xs ys))

let extra_suite =
  [
    ("timebase pp", `Quick, timebase_pp);
    ("timebase sentinel", `Quick, timebase_sentinel);
    ("rng pick", `Quick, rng_pick_uniformish);
    ("engine handle dead after run", `Quick, engine_handle_dead_after_run);
    ("engine negative delay", `Quick, engine_negative_delay_rejected);
    ("engine pending counts", `Quick, engine_pending_counts);
    ("pheap negative priorities", `Quick, pheap_negative_priorities);
    ("fqueue of_list order", `Quick, fqueue_of_list_order);
    QCheck_alcotest.to_alcotest fqueue_equal_prop;
  ]

let suite = suite @ extra_suite
