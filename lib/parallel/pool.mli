(** Fixed-size domain pool with deterministic partition/merge.

    The simulator's reproducibility bar is bit-equality: running an
    experiment sweep on [n] domains must produce exactly the serial
    answer. This pool guarantees it structurally — work items are chunked
    by {e index} (contiguous ranges, never work-stealing order), each
    result is written to its own slot, and the merge reads the slots back
    in index order. Provided [f] is a pure function of its argument (no
    shared mutable state, no domain identity — rule R7 of the determinism
    linter), [map_list pool ~f xs = List.map f xs], bit for bit, for every
    pool size.

    A pool of [domains = n] spawns [n - 1] worker domains; the calling
    domain runs chunks itself while waiting. [domains = 1] never spawns
    and degrades to the plain serial map. A map of two or more items on a
    pool of more than one domain always fans. Nested maps (an [f] that
    itself maps on the same pool) are supported.

    The repo's only fan is whole runs ([Harness.run_many],
    the CLI sweeps): the belief filter and the planner run serially,
    one wakeup after another, as the paper's sender does. *)

type t

val create : domains:int -> unit -> t
(** [domains >= 1] is the total parallelism, counting the caller; the
    pool has exactly that many domains.
    @raise Invalid_argument if [domains < 1]. *)

val domains : t -> int

val shutdown : t -> unit
(** Joins the worker domains. The pool must not be used afterwards. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)

val map_list : ?chunk:int -> t -> f:('a -> 'b) -> 'a list -> 'b list
(** Deterministic parallel map: equals [List.map f] bit-for-bit for pure
    [f], independent of [domains] and [chunk]. [chunk] (default
    [ceil (n / domains)]) is the contiguous work-unit size; smaller chunks
    balance uneven work at slightly more synchronization. The caller
    dispatches every chunk but the last and runs that last — possibly
    short — chunk itself first, so small remainders never serialize a map
    behind the dispatching domain. If any [f] raises, the exception of
    the lowest-indexed failing chunk is re-raised after all chunks
    settle.
    @raise Invalid_argument if [chunk < 1]. *)

val map_array : ?chunk:int -> t -> f:('a -> 'b) -> 'a array -> 'b array
(** [map_list] over arrays. *)

(** {1 Default pool}

    The process-wide pool that [Harness.run_many] and the
    CLI's [--domains] use. Its size is the [UTC_DOMAINS] environment
    variable, or {!set_default_domains}'s argument, or else
    {!recommended}, and never more than {!recommended}: extra domains
    only oversubscribe the hardware. *)

val default : unit -> t
(** The shared pool, created on first use from [UTC_DOMAINS].
    @raise Invalid_argument, naming the variable, if [UTC_DOMAINS] is set
    but not a positive integer. *)

val set_default_domains : int -> unit
(** Replace the default pool (the [--domains] CLI flag) with one of
    [min n (recommended ())] domains. Shuts the previous default down.
    @raise Invalid_argument if the argument is [< 1]. *)

val default_domains : unit -> int
(** Size the default pool has, or would be created with.
    @raise Invalid_argument as {!default} does. *)

val recommended : unit -> int
(** The runtime's recommended domain count for this machine. A hardware
    inventory: it caps the default pool's size, but it must never
    influence a simulated result, only where and when work runs. *)
