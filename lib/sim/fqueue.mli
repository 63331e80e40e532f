(** Persistent FIFO queue (pair-of-lists).

    Used for element states inside the belief-state interpreter, where a
    network configuration must be forked cheaply and compared structurally.
    {!to_list} gives a canonical representation independent of the internal
    front/back split, so two queues holding the same elements are equal
    after [to_list] even when their internals differ. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool

val push : 'a -> 'a t -> 'a t
(** Enqueue at the back. *)

val head : 'a t -> 'a
(** The front element. Allocates nothing.
    @raise Invalid_argument on the empty queue. *)

val drop : 'a t -> 'a t
(** Dequeue from the front: the queue without its {!head}.
    @raise Invalid_argument on the empty queue. *)

val of_list : 'a list -> 'a t
(** Front of the queue is the head of the list. *)

val to_list : 'a t -> 'a list
(** Front first. Canonical. *)

val sum : ('a -> int) -> 'a t -> int
(** [sum f q] adds [f x] over the elements. A sum does not depend on
    the order it visits them in, so it reads the front/back split as it
    stands and allocates nothing. *)

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
(** Same elements front to back under the given equality, whatever the
    internal front/back split. Allocates nothing beyond what [eq] does:
    the back lists are matched in reverse on the stack, whose depth is
    at most the queue's length. *)
