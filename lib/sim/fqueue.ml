(* [front] is empty only when the queue is, so the head is [front]'s. *)
type 'a t = { front : 'a list; back : 'a list; length : int }

let empty = { front = []; back = []; length = 0 }
let is_empty t = t.length = 0
let length t = t.length

let push x t =
  match t.front with
  | [] -> { front = [ x ]; back = []; length = 1 }
  | _ :: _ -> { t with back = x :: t.back; length = t.length + 1 }

let head t =
  match t.front with
  | x :: _ -> x
  | [] -> invalid_arg "Fqueue.head: empty queue"

let drop t =
  match t.front with
  | [ _ ] -> { front = List.rev t.back; back = []; length = t.length - 1 }
  | _ :: front -> { t with front; length = t.length - 1 }
  | [] -> invalid_arg "Fqueue.drop: empty queue"

let of_list xs = { front = xs; back = []; length = List.length xs }
let to_list t = t.front @ List.rev t.back

let fold f acc t =
  let acc = List.fold_left f acc t.front in
  List.fold_left f acc (List.rev t.back)

let rec sum_list f acc = function
  | [] -> acc
  | x :: rest -> sum_list f (acc + f x) rest

let sum f t = sum_list f (sum_list f 0 t.front) t.back

(* [equal] compares [front @ rev back] of two queues without building
   either sequence. The helpers match one list against the head of the
   other and return what is left of the longer one; [eq] always takes
   the element of [a] first. A reversed list is matched on the way back
   out of the recursion, so it lives on the stack, not the heap. *)
exception Mismatch

(* [a] against the head of [b]: what follows it in [b]. *)
let rec after_a eq a b =
  match a, b with
  | [], _ -> b
  | x :: a, y :: b when eq x y -> after_a eq a b
  | _ :: _, _ -> raise_notrace Mismatch

(* [b] against the head of [a]: what follows it in [a]. *)
let rec after_b eq a b =
  match a, b with
  | _, [] -> a
  | x :: a, y :: b when eq x y -> after_b eq a b
  | _, _ :: _ -> raise_notrace Mismatch

(* [List.rev a] against the head of [b]: what follows it in [b]. *)
let rec rev_a eq a b =
  match a with
  | [] -> b
  | x :: a -> (
    match rev_a eq a b with
    | y :: b when eq x y -> b
    | [] | _ :: _ -> raise_notrace Mismatch)

(* [List.rev b] against the head of [a]: what follows it in [a]. *)
let rec rev_b eq a b =
  match b with
  | [] -> a
  | y :: b -> (
    match rev_b eq a b with
    | x :: a when eq x y -> a
    | [] | _ :: _ -> raise_notrace Mismatch)

let spent = function
  | [] -> true
  | _ :: _ -> false

(* Both queues have the same length. After their common front prefix,
   one front is spent: if [a]'s, then [rev a.back = rest @ rev b.back],
   that is [a.back = b.back @ rev rest], and symmetrically for [b]. *)
let rec split_equal eq fa fb ba bb =
  match fa, fb with
  | x :: fa, y :: fb -> eq x y && split_equal eq fa fb ba bb
  | [], rest -> spent (rev_b eq (after_b eq ba bb) rest)
  | rest, [] -> spent (rev_a eq rest (after_a eq ba bb))

let equal eq a b =
  a == b
  || a.length = b.length
     &&
     match a.back, b.back with
     | [], [] -> List.equal eq a.front b.front
     | _ :: _, _ | _, _ :: _ -> (
       try split_equal eq a.front b.front a.back b.back with Mismatch -> false)
