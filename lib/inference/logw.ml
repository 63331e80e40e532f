let logsumexp xs =
  let m = List.fold_left Float.max neg_infinity xs in
  if m = neg_infinity then neg_infinity
  else begin
    let sum = List.fold_left (fun acc x -> acc +. exp (x -. m)) 0.0 xs in
    m +. log sum
  end

let normalize xs =
  let z = logsumexp xs in
  List.map (fun x -> x -. z) xs

let entropy xs =
  let normalized = normalize xs in
  let term acc logp = if logp = neg_infinity then acc else acc -. (exp logp *. logp) in
  List.fold_left term 0.0 normalized

(* Flat-array variants for the structure-of-arrays belief store. Both
   fold in ascending index order — the same order as the list versions —
   so a belief stored as arrays normalizes to exactly the bits the list
   pipeline produced. *)

let logsumexp_arr xs =
  let n = Array.length xs in
  let m = ref neg_infinity in
  for i = 0 to n - 1 do
    m := Float.max !m xs.(i)
  done;
  let m = !m in
  if m = neg_infinity then neg_infinity
  else begin
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum := !sum +. exp (xs.(i) -. m)
    done;
    m +. log !sum
  end

let logsumexp2 a b =
  let m = Float.max a b in
  if m = neg_infinity then neg_infinity else m +. log (exp (a -. m) +. exp (b -. m))
