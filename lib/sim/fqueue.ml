type 'a t = { front : 'a list; back : 'a list; length : int }

let empty = { front = []; back = []; length = 0 }
let is_empty t = t.length = 0
let length t = t.length
let push x t = { t with back = x :: t.back; length = t.length + 1 }

let pop t =
  match t.front with
  | x :: front -> Some (x, { t with front; length = t.length - 1 })
  | [] -> (
    match List.rev t.back with
    | [] -> None
    | x :: front -> Some (x, { front; back = []; length = t.length - 1 }))

let peek t =
  match t.front with
  | x :: _ -> Some x
  | [] -> (
    match List.rev t.back with
    | [] -> None
    | x :: _ -> Some x)

let of_list xs = { front = xs; back = []; length = List.length xs }
let to_list t = t.front @ List.rev t.back

let fold f acc t =
  let acc = List.fold_left f acc t.front in
  List.fold_left f acc (List.rev t.back)

let rec sum_list f acc = function
  | [] -> acc
  | x :: rest -> sum_list f (acc + f x) rest

let sum f t = sum_list f (sum_list f 0 t.front) t.back

let equal eq a b =
  a == b
  || a.length = b.length
     &&
     match a.back, b.back with
     | [], [] -> List.equal eq a.front b.front
     | _ :: _, _ | _, _ :: _ -> List.equal eq (to_list a) (to_list b)
