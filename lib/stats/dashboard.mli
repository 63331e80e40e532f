(** Terminal dashboard frames for [utc top].

    A read-only consumer of the telemetry the observability layer already
    writes: JSONL journal lines (as produced by {!Utc_obs.Export.render})
    and an optional metrics snapshot ({!Utc_obs.Metrics.snapshot_json}).
    Everything is pure — strings in, one frame string out — so the
    refresh/tail loop lives in the CLI and the dashboard cannot perturb a
    run's determinism. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* lint:allow R13 -- perfbench's JSON reader reads it; ROADMAP item 6 drops it *)
val parse_json : string -> json option
(** Small recursive-descent JSON reader (numbers as floats); [None] on
    malformed input or trailing garbage. *)

val render_frame :
  ?width:int -> ?window:float -> ?metrics_json:string -> journal_lines:string list -> unit -> string
(** One dashboard frame: per-flow send/ack/drop counts with goodput over
    the trailing [?window] (default 5 s, estimated from acked packets ×
    last seen packet size), latest belief entropy/ESS plus an entropy
    sparkline ({!Ascii_plot}), the most recent recovery transition, and —
    when [?metrics_json] is given — self-cost bars for the top span
    phases (wall-clock when the snapshot carries profile fields, sim-time
    otherwise). Unparseable lines are skipped. *)
