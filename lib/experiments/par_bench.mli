(** Serial-vs-pooled benchmark of the one fan the repo has, with a
    bit-equality attestation and a no-regression grade.

    Times a (seed, α) sweep of whole {!Harness} runs twice: on an
    explicit 1-domain pool (serial), and on the default pool, which is
    the pool [--domains N] gives every command. Results must be
    bit-identical (everything except wall time). The report feeds
    [BENCH_parallel.json] (CI artifact) and the EXPERIMENTS.md speedup
    table.

    [speedup] is serial over pooled wall time, and exactly 1.0 when the
    default pool has one domain (the schedules are then identical, so
    timer noise is not reported as a slowdown). An entry with
    [speedup < 1.0] means the pool made the sweep slower — the
    regression this benchmark exists to catch. *)

type entry = {
  label : string;
  work_items : int;  (** Independent runs fanned across the pool. *)
  serial_seconds : float;  (** On a 1-domain pool. *)
  pooled_seconds : float;  (** On the default pool. *)
  speedup : float;
      (** [serial /. pooled]; exactly [1.0] on a 1-domain default pool. *)
  bit_identical : bool;  (** Serial and pooled results agree. *)
}

type report = {
  pool_domains : int;  (** Size of the default pool the sweep fanned on. *)
  recommended_domains : int;
  entries : entry list;
  all_identical : bool;
}

val run : ?domains:int -> ?seed:int -> ?duration:float -> unit -> report
(** [domains], when given, resizes the default pool first
    ({!Utc_parallel.Pool.set_default_domains}, so at most the machine's
    recommended count); [seed] (default 7) and [duration] (default 30 s)
    shape the harness sweep. *)

val regressions : report -> entry list
(** Entries where the pool lost to serial ([speedup < 1.0]) or changed
    the result ([bit_identical = false]). Empty on a healthy machine. *)

val write_json : path:string -> report -> unit

val pp_report : Format.formatter -> report -> unit
