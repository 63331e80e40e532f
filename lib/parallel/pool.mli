(** Deterministic parallel map over a fixed number of domains.

    The simulator's reproducibility bar is bit-equality: running an
    experiment sweep on [n] domains must produce exactly the serial
    answer. This pool guarantees it structurally — work items are cut
    into contiguous {e index} chunks, each chunk's results stay in
    order, and the merge concatenates the chunks in index order.
    Provided [f] is a pure function of its argument (no shared mutable
    state, no domain identity — rule R7 of the determinism linter),
    [map_list pool ~f xs = List.map f xs], bit for bit, for every pool
    size.

    A pool is only a domain count: nothing runs between maps. Each map
    spawns its own domains and joins them before it returns.

    The repo's only fan is whole runs ([Harness.run_many],
    the CLI sweeps): the belief filter and the planner run serially,
    one wakeup after another, as the paper's sender does. *)

type t

val create : domains:int -> unit -> t
(** [domains >= 1] is the total parallelism, counting the caller; a map
    on the pool uses at most that many domains.
    @raise Invalid_argument if [domains < 1]. *)

val domains : t -> int

val map_list : t -> f:('a -> 'b) -> 'a list -> 'b list
(** Deterministic parallel map: equals [List.map f] bit-for-bit for pure
    [f], independent of [domains]. On one domain, or for fewer than two
    items, it is [List.map f]. Otherwise the [n] items are cut into
    contiguous chunks of [ceil (n / domains)]; one spawned domain runs
    each chunk but the last, and the caller runs the last, possibly
    short, chunk. A spawned domain starts with fresh domain-local state
    ({!Dls}), while the caller's chunk runs under whatever bindings the
    caller holds. Every spawned domain is joined before the map returns
    or raises. If [f] raises, or a [Domain.spawn] fails, the exception
    of the lowest-indexed failing chunk is re-raised: the one the serial
    left-to-right map would have raised. *)

(** {1 Default pool}

    The process-wide pool that [Harness.run_many] and the
    CLI's [--domains] use. Its size is {!set_default_domains}'s
    argument, or else the [UTC_DOMAINS] environment variable, or else
    {!recommended}, and never more than {!recommended}: extra domains
    only oversubscribe the hardware. *)

val default : unit -> t
(** The shared pool.
    @raise Invalid_argument, naming the variable, if no size was set and
    [UTC_DOMAINS] is set but not a positive integer. *)

val set_default_domains : int -> unit
(** Resize the default pool (the [--domains] CLI flag) to
    [min n (recommended ())] domains.
    @raise Invalid_argument if the argument is [< 1]. *)

val default_domains : unit -> int
(** Size of the default pool.
    @raise Invalid_argument as {!default} does. *)

val recommended : unit -> int
(** The runtime's recommended domain count for this machine. A hardware
    inventory: it caps the default pool's size, but it must never
    influence a simulated result, only where and when work runs. *)
