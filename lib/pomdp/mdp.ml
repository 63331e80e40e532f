type t = {
  states : int;
  actions : int;
  transition : int -> int -> (int * float) list;
  reward : int -> int -> float;
}

let validate t =
  let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  if t.states <= 0 then fail "MDP has no states"
  else if t.actions <= 0 then fail "MDP has no actions"
  else begin
    let check_cell s a =
      let outcomes = t.transition s a in
      let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 outcomes in
      if Float.abs (total -. 1.0) > 1e-9 then
        fail "transition (%d, %d) sums to %g, not 1" s a total
      else if List.exists (fun (s', p) -> s' < 0 || s' >= t.states || p < 0.0) outcomes then
        fail "transition (%d, %d) has an invalid successor or probability" s a
      else Ok ()
    in
    let rec loop s a =
      if s = t.states then Ok ()
      else if a = t.actions then loop (s + 1) 0
      else begin
        match check_cell s a with
        | Error _ as e -> e
        | Ok () -> loop s (a + 1)
      end
    in
    loop 0 0
  end

let discount = 0.95
let epsilon = 1e-9
let max_iterations = 100_000

type solution = {
  values : float array;
  policy : int array;
  iterations : int;
  residual : float;
}

let q_value t ~values s a =
  let future =
    List.fold_left (fun acc (s', p) -> acc +. (p *. values.(s'))) 0.0 (t.transition s a)
  in
  t.reward s a +. (discount *. future)

let greedy t ~values =
  Array.init t.states (fun s ->
      let best_a = ref 0 and best_q = ref neg_infinity in
      for a = 0 to t.actions - 1 do
        let q = q_value t ~values s a in
        if q > !best_q then begin
          best_q := q;
          best_a := a
        end
      done;
      !best_a)

let value_iteration t =
  let () =
    match validate t with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Mdp.value_iteration: " ^ msg)
  in
  let values = Array.make t.states 0.0 in
  let residual = ref infinity in
  let iterations = ref 0 in
  while !residual > epsilon && !iterations < max_iterations do
    residual := 0.0;
    for s = 0 to t.states - 1 do
      let best = ref neg_infinity in
      for a = 0 to t.actions - 1 do
        best := Float.max !best (q_value t ~values s a)
      done;
      residual := Float.max !residual (Float.abs (!best -. values.(s)));
      values.(s) <- !best
    done;
    incr iterations
  done;
  let policy = greedy t ~values in
  { values; policy; iterations = !iterations; residual = !residual }
