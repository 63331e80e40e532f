(** Deterministic pseudo-random number generator.

    A self-contained xoshiro256** generator seeded through SplitMix64, so
    that every simulation in this project is exactly reproducible from an
    integer seed, independent of the OCaml standard library's generator.

    The generator is mutable; use {!split} to derive independent streams
    (e.g. one per network element) so that adding randomness consumption in
    one element does not perturb another. *)

type t

val create : seed:int -> t
(** Fresh generator from a 63-bit seed. *)

val split : t -> t
(** A new generator seeded from (and advancing) [t], statistically
    independent of the parent's subsequent output. *)

(* lint:allow R13 -- perfbench's RNG kernel reads it; ROADMAP item 6 drops it *)
val bits64 : t -> int64
(** Next raw 64 bits. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. Requires [lo <= hi]. *)

val bernoulli : t -> p:float -> bool
(** [true] with probability [p]. Requires [0 <= p <= 1]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. Requires [mean > 0]. *)
