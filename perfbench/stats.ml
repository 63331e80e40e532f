(* Order statistics over samples. [quartiles] follows Python's
   [statistics.quantiles(values, n=4)] (the "exclusive" method), so the
   spreads this program prints match what that function gives for the
   same values. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

let quartiles values =
  let d = sorted values in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)
  end

let median values =
  let _, m, _ = quartiles values in
  m

(* Linear interpolation between closest ranks over a sorted array. *)
let percentile_sorted d q =
  let n = Array.length d in
  if n = 0 then 0.0
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    d.(lo) +. ((d.(hi) -. d.(lo)) *. frac)
  end
