type format = Jsonl | Chrome

let jsonl_line (r : Sink.recorded) =
  let open Obs_json in
  let flow =
    match r.flow with
    | Some f -> [ ("flow", Str f) ]
    | None -> []
  in
  let run =
    match r.run with
    | Some run -> [ ("run", Str run) ]
    | None -> []
  in
  obj
    ([ ("t", Float r.at); ("n", Int r.seq); ("event", Str (Event.kind r.event)) ]
    @ flow @ run @ Event.fields r.event)

let jsonl records =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf (jsonl_line r);
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf

(* Chrome trace_event JSON-array format, loadable in chrome://tracing
   and Perfetto. pid/tid are synthetic: one "process" per run when the
   record carries a run label (sweeps: one track per run), else one per
   flow, with pid 1 the simulation itself (no run, no flow). pids are
   assigned in order of first appearance, which journal determinism
   makes stable, and named via process_name metadata. Within a process,
   tid 0 is the span lane — Span_begin/Span_end pairs are matched into
   duration ("X") slices whose nesting Perfetto renders as a flame
   graph — and each other event kind gets its own instant-event ("i")
   lane, named via thread_name metadata. A Span_end whose begin fell off
   the journal ring is skipped; a Span_begin whose end lies beyond the
   journal is emitted as an unterminated "B" slice. *)
let span_tid = 0

let chrome records =
  let pids = Hashtbl.create 16 in
  let pid_order = ref [ (1, "sim") ] in
  Hashtbl.replace pids "sim" 1;
  let next_pid = ref 1 in
  let pid_of (r : Sink.recorded) =
    let key, name =
      match (r.run, r.flow) with
      | Some run, _ -> ("r:" ^ run, "run " ^ run)
      | None, Some flow -> ("f:" ^ flow, "flow " ^ flow)
      | None, None -> ("sim", "sim")
    in
    match Hashtbl.find_opt pids key with
    | Some pid -> pid
    | None ->
      incr next_pid;
      Hashtbl.replace pids key !next_pid;
      pid_order := (!next_pid, name) :: !pid_order;
      !next_pid
  in
  let kinds = Hashtbl.create 16 in
  let next_tid = ref 0 in
  let tid_of kind =
    match Hashtbl.find_opt kinds kind with
    | Some tid -> tid
    | None ->
      incr next_tid;
      Hashtbl.replace kinds kind !next_tid;
      !next_tid
  in
  let lanes = Hashtbl.create 16 in
  let lane_order = ref [] in
  let lane pid tid name =
    if not (Hashtbl.mem lanes (pid, tid)) then begin
      Hashtbl.replace lanes (pid, tid) ();
      lane_order := (pid, tid, name) :: !lane_order
    end
  in
  (* Resolve pids and lanes up front so metadata can lead the trace. *)
  List.iter
    (fun (r : Sink.recorded) ->
      let pid = pid_of r in
      match r.event with
      | Event.Span_begin _ | Event.Span_end _ -> lane pid span_tid "spans"
      | e ->
        let kind = Event.kind e in
        lane pid (tid_of kind) kind)
    records;
  let open Obs_json in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  let metadata ~meta ~pid ~tid name =
    "{" ^ quote "name" ^ ":" ^ quote meta ^ "," ^ quote "ph" ^ ":\"M\"," ^ quote "pid" ^ ":"
    ^ string_of_int pid ^ "," ^ quote "tid" ^ ":" ^ string_of_int tid ^ "," ^ quote "args" ^ ":"
    ^ obj [ ("name", Str name) ]
    ^ "}"
  in
  List.iter
    (fun (pid, name) -> emit (metadata ~meta:"process_name" ~pid ~tid:0 name))
    (List.rev !pid_order);
  List.iter
    (fun (pid, tid, name) -> emit (metadata ~meta:"thread_name" ~pid ~tid name))
    (List.rev !lane_order);
  let stacks : (int, (string * float * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack pid =
    match Hashtbl.find_opt stacks pid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.replace stacks pid s;
      s
  in
  let slice ~ph ~name ~ts ?dur ~pid ~seq () =
    let dur =
      match dur with
      | Some d -> "," ^ quote "dur" ^ ":" ^ number (d *. 1e6)
      | None -> ""
    in
    "{" ^ quote "name" ^ ":" ^ quote name ^ "," ^ quote "ph" ^ ":" ^ quote ph ^ "," ^ quote "ts"
    ^ ":" ^ number (ts *. 1e6) ^ dur ^ "," ^ quote "pid" ^ ":" ^ string_of_int pid ^ ","
    ^ quote "tid" ^ ":" ^ string_of_int span_tid ^ "," ^ quote "args" ^ ":"
    ^ obj [ ("n", Int seq) ]
    ^ "}"
  in
  List.iter
    (fun (r : Sink.recorded) ->
      let pid = pid_of r in
      match r.event with
      | Event.Span_begin { path } ->
        let s = stack pid in
        s := (path, r.at, r.seq) :: !s
      | Event.Span_end { path } -> (
        let s = stack pid in
        match !s with
        | (p, t0, seq0) :: rest when String.equal p path ->
          s := rest;
          emit (slice ~ph:"X" ~name:path ~ts:t0 ~dur:(r.at -. t0) ~pid ~seq:seq0 ())
        | _ -> (* orphaned end: its begin fell off the ring *) ())
      | e ->
        let kind = Event.kind e in
        emit
          ("{" ^ quote "name" ^ ":" ^ quote kind ^ "," ^ quote "ph" ^ ":\"i\"," ^ quote "ts" ^ ":"
         ^ number (r.at *. 1e6) ^ "," ^ quote "pid" ^ ":" ^ string_of_int pid ^ "," ^ quote "tid"
         ^ ":" ^ string_of_int (tid_of kind) ^ "," ^ quote "s" ^ ":\"t\"," ^ quote "args" ^ ":"
          ^ obj (("n", Int r.seq) :: Event.fields e)
          ^ "}"))
    records;
  List.iter
    (fun (pid, _) ->
      match Hashtbl.find_opt stacks pid with
      | None -> ()
      | Some s ->
        List.iter
          (fun (path, ts, seq) -> emit (slice ~ph:"B" ~name:path ~ts ~pid ~seq ()))
          (List.rev !s))
    (List.rev !pid_order);
  Buffer.add_string buf "]\n";
  Buffer.contents buf

let render fmt records =
  match fmt with
  | Jsonl -> jsonl records
  | Chrome -> chrome records

let write ~path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* Time series usable by the figure pipeline: (sim-time, value) pairs in
   journal order. *)
let series records =
  List.fold_left
    (fun acc (r : Sink.recorded) ->
      let put name v (entropy, ess, size, margin) =
        match name with
        | `Entropy -> ((r.at, v) :: entropy, ess, size, margin)
        | `Ess -> (entropy, (r.at, v) :: ess, size, margin)
        | `Size -> (entropy, ess, (r.at, v) :: size, margin)
        | `Margin -> (entropy, ess, size, (r.at, v) :: margin)
      in
      match r.event with
      | Event.Belief_update { size; entropy; ess; _ } ->
        acc |> put `Entropy entropy |> put `Ess ess |> put `Size (float_of_int size)
      | Event.Planner_decide { margin; _ } -> put `Margin margin acc
      | _ -> acc)
    ([], [], [], []) records
  |> fun (entropy, ess, size, margin) ->
  [
    ("belief.entropy", List.rev entropy);
    ("belief.ess", List.rev ess);
    ("belief.size", List.rev size);
    ("planner.margin", List.rev margin);
  ]
