(** Cost attribution over the nested span tree recorded by
    {!Metrics.span}.

    {!Metrics.snapshot} exposes spans as a flat path-keyed table of
    cumulative totals; {!of_spans} rebuilds the tree and derives
    self cost (cumulative minus the sum over direct children, clamped at
    zero) for every axis: sim-time, wall-time, and GC minor/major
    allocation words. Renderers are pure — they return strings, never
    print.

    Determinism: tree shape, call counts, sim-time and self-sim-time are
    byte-identical at any domain count for a fixed [(seed, schedule)];
    [~sim_only] renders exactly that subset, which is what the golden
    profile file and the CI [--domains 1] vs [4] diff pin. Wall and
    allocation columns are profiling-only. *)

type node = {
  path : string;  (** full [/]-separated span path *)
  name : string;  (** last path segment *)
  depth : int;
  calls : int;
  sim : float;  (** cumulative sim-seconds (includes children) *)
  wall : float;  (** cumulative wall-seconds (profiling only) *)
  minor_words : float;
  major_words : float;
  self_sim : float;  (** [sim] minus direct children's, clamped ≥ 0 *)
  self_wall : float;
  self_minor_words : float;
  self_major_words : float;
  children : node list;  (** path-sorted *)
}

val of_spans : (string * Metrics.span_view) list -> node list
(** Roots of the rebuilt tree, path-sorted. Missing ancestors (possible
    only if a reset races the snapshot) are synthesized as zero nodes so
    the tree always connects. *)

val flatten : node list -> node list
(** Depth-first preorder — flame order. *)

val top_nodes : ?top:int -> key:(node -> float) -> node list -> node list
(** The [top] (default 10) nodes of the tree with the largest [key],
    descending; ties break on the path, so the ranking is total. *)

val render_text : ?top:int -> ?sim_only:bool -> node list -> string
(** Indented flame-ordered tree followed by a top-[N] (default 10) table
    ranked by self wall time (self sim time under [~sim_only:true]; ties
    break on the path, so the ranking is total and deterministic). *)

val render_json : ?top:int -> ?sim_only:bool -> node list -> string
(** One-line JSON: [{"sim_only":…,"tree":[…nested nodes…],"top":[…]}]. *)
