(* The benchmark's clock and its span recorder.

   Spans are recorded only by the benchmark's own code, around its calls
   into each layer. They live in a bounded in-memory buffer (structure of
   arrays, no allocation per span) that counts what it could not keep,
   and are written out as Chrome trace_event JSON after the run. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable buffer of ints (durations in ns). *)
module Ibuf = struct
  type t = {
    mutable a : int array;
    mutable n : int;
  }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n
  let contents b = Array.sub b.a 0 b.n
end

type t = {
  cap : int;
  name : string array;
  t0 : int array;
  t1 : int array;
  parent : int array;
  run : int array;
  mutable n : int;
  mutable dropped : int;
  mutable stack : int list;  (** open spans, innermost first; -1 for a dropped one *)
  mutable run_id : int;
  mutable step_t0 : int;  (** start of the engine step in progress, or -1 *)
  mutable step_open : bool;  (** a child forced that step's span onto the stack *)
  mutable step_idx : int;  (** its index, or -1 if the buffer was full *)
}

let create ~capacity =
  {
    cap = capacity;
    name = Array.make capacity "";
    t0 = Array.make capacity 0;
    t1 = Array.make capacity 0;
    parent = Array.make capacity (-1);
    run = Array.make capacity 0;
    n = 0;
    dropped = 0;
    stack = [];
    run_id = 0;
    step_t0 = -1;
    step_open = false;
    step_idx = -1;
  }

let top t =
  match t.stack with
  | i :: _ -> i
  | [] -> -1

let alloc t name ~at =
  if t.n >= t.cap then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- name;
    t.t0.(i) <- at;
    t.t1.(i) <- at;
    t.parent.(i) <- top t;
    t.run.(i) <- t.run_id;
    i
  end

(* Most engine steps run no layer the benchmark wraps. A step's span is
   therefore created only when a child span opens inside it (or, for a
   wakeup, when it ends), so the buffer holds the steps that matter. *)
let materialize_step t =
  if t.step_t0 >= 0 && not t.step_open then begin
    let i = alloc t "step" ~at:t.step_t0 in
    t.step_open <- true;
    t.step_idx <- i;
    t.stack <- i :: t.stack
  end

let enter t name ~at =
  materialize_step t;
  let i = alloc t name ~at in
  t.stack <- i :: t.stack;
  i

let leave t i ~at =
  if i >= 0 then t.t1.(i) <- at;
  match t.stack with
  | _ :: rest -> t.stack <- rest
  | [] -> ()

let set_run t id = t.run_id <- id
let step_begin t ~at = t.step_t0 <- at

let step_end t ~at ~woke =
  let name = if woke then "wakeup" else "step" in
  if t.step_open then begin
    if t.step_idx >= 0 then t.name.(t.step_idx) <- name;
    leave t t.step_idx ~at
  end
  else if woke && t.step_t0 >= 0 then begin
    let i = alloc t name ~at:t.step_t0 in
    if i >= 0 then t.t1.(i) <- at
  end;
  t.step_t0 <- -1;
  t.step_open <- false;
  t.step_idx <- -1

let recorded t = t.n
let dropped t = t.dropped

(* Self time per span name: each span's duration minus the durations of
   its direct children, summed by name. Returned as (name, calls, self
   seconds, total seconds), heaviest self time first. *)
let self_times t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (t.t1.(i) - t.t0.(i))
  done;
  let table = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let dur = t.t1.(i) - t.t0.(i) in
    let calls, self, total =
      Option.value (Hashtbl.find_opt table t.name.(i)) ~default:(0, 0, 0)
    in
    Hashtbl.replace table t.name.(i) (calls + 1, self + dur - child.(i), total + dur)
  done;
  Hashtbl.fold
    (fun name (calls, self, total) acc ->
      (name, calls, float_of_int self *. 1e-9, float_of_int total *. 1e-9) :: acc)
    table []
  |> List.sort (fun (na, _, a, _) (nb, _, b, _) ->
         match Float.compare b a with
         | 0 -> String.compare na nb
         | c -> c)

let write_chrome t ~path =
  let oc = open_out path in
  let origin = if t.n > 0 then Array.fold_left min max_int (Array.sub t.t0 0 t.n) else 0 in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "%s{\"name\":%S,\"cat\":\"perf\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\
       \"args\":{\"id\":%d,\"parent\":%d}}\n"
      (if i = 0 then "" else ",")
      t.name.(i)
      (float_of_int (t.t0.(i) - origin) /. 1e3)
      (float_of_int (t.t1.(i) - t.t0.(i)) /. 1e3)
      t.run.(i) i t.parent.(i)
  done;
  Printf.fprintf oc "],\"otherData\":{\"recorded\":%d,\"dropped\":%d}}\n" t.n t.dropped;
  close_out oc
