let jain allocations =
  if List.is_empty allocations then invalid_arg "Fairness.jain: empty list";
  assert (List.for_all (fun x -> x >= 0.0) allocations);
  let n = float_of_int (List.length allocations) in
  let total = List.fold_left ( +. ) 0.0 allocations in
  let squares = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 allocations in
  if squares = 0.0 then 0.0 else total *. total /. (n *. squares)
