(* Live terminal dashboard over the telemetry journal: a read-only
   consumer of JSONL journal lines and (optionally) a metrics snapshot,
   rendering per-flow goodput, belief entropy/ESS, recovery state, and
   span-phase cost bars. Everything here is pure — parse strings, return
   a frame string — so `utc top` (bin/) owns the tail/refresh loop and
   the dashboard has zero effect on determinism. *)

(* --- a minimal JSON reader ---

   The journal and snapshot formats are produced by Obs_json, but the
   dashboard must not depend on the producer's internals (it tails files
   from disk), so it carries its own small recursive-descent parser. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let skip_ws () =
    while
      !pos < n
      &&
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' -> true
      | _ -> false
    do
      incr pos
    done
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else raise Bad_json in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise Bad_json;
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then raise Bad_json;
        (match s.[!pos] with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          (* Escaped code point: keep the frame printable without a full
             UTF-8 encoder. *)
          if !pos + 4 >= n then raise Bad_json;
          pos := !pos + 4;
          Buffer.add_char buf '?'
        | _ -> raise Bad_json);
        incr pos;
        go ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then raise Bad_json;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> raise Bad_json
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.equal (String.sub s !pos len) word then begin
      pos := !pos + len;
      value
    end
    else raise Bad_json
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then raise Bad_json;
    match s.[!pos] with
    | '"' -> Str (parse_string ())
    | '{' ->
      incr pos;
      skip_ws ();
      if !pos < n && s.[!pos] = '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            fields ((key, v) :: acc)
          end
          else begin
            expect '}';
            List.rev ((key, v) :: acc)
          end
        in
        Obj (fields [])
      end
    | '[' ->
      incr pos;
      skip_ws ();
      if !pos < n && s.[!pos] = ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            items (v :: acc)
          end
          else begin
            expect ']';
            List.rev (v :: acc)
          end
        in
        Arr (items [])
      end
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos = n then Some v else None
  | exception Bad_json -> None

let member key = function
  | Obj fields -> Option.map snd (List.find_opt (fun (k, _) -> String.equal k key) fields)
  | _ -> None

let num_field key j =
  match member key j with
  | Some (Num f) -> Some f
  | _ -> None

let str_field key j =
  match member key j with
  | Some (Str s) -> Some s
  | _ -> None

(* --- per-flow accounting --- *)

type flow_stats = {
  mutable sends : int;
  mutable acks : int;
  mutable drops : int;
  mutable w_acks : int; (* acks inside the trailing window *)
  mutable bits : float; (* last packet size seen for the flow *)
}

type state = {
  flows : (string, flow_stats) Hashtbl.t;
  mutable flow_order : string list; (* reverse first-appearance order *)
  mutable t_min : float;
  mutable t_max : float;
  mutable events : int;
  mutable entropy : (float * float) list; (* reverse journal order *)
  mutable ess : float option;
  mutable belief_size : float option;
  mutable recovery : (float * string * string * float) option; (* t, from, to, reseeds *)
}

let flow_entry st flow =
  match Hashtbl.find_opt st.flows flow with
  | Some e -> e
  | None ->
    let e = { sends = 0; acks = 0; drops = 0; w_acks = 0; bits = 0.0 } in
    Hashtbl.replace st.flows flow e;
    st.flow_order <- flow :: st.flow_order;
    e

let ingest st line =
  match parse_json line with
  | None -> ()
  | Some j ->
    let t = Option.value (num_field "t" j) ~default:0.0 in
    st.events <- st.events + 1;
    if st.events = 1 then st.t_min <- t else st.t_min <- Float.min st.t_min t;
    st.t_max <- Float.max st.t_max t;
    let flow = Option.value (str_field "flow" j) ~default:"(sim)" in
    (match str_field "event" j with
    | Some "packet_send" ->
      let e = flow_entry st flow in
      e.sends <- e.sends + 1;
      (match num_field "bits" j with
      | Some b -> e.bits <- b
      | None -> ())
    | Some "packet_ack" ->
      let e = flow_entry st flow in
      e.acks <- e.acks + 1
    | Some "packet_drop" ->
      let e = flow_entry st flow in
      e.drops <- e.drops + 1
    | Some "belief_update" ->
      (match num_field "entropy" j with
      | Some h -> st.entropy <- (t, h) :: st.entropy
      | None -> ());
      st.ess <- num_field "ess" j;
      st.belief_size <- num_field "size" j
    | Some "recovery_transition" ->
      (match (str_field "from" j, str_field "to" j) with
      | Some from_, Some to_ ->
        st.recovery <- Some (t, from_, to_, Option.value (num_field "reseeds" j) ~default:0.0)
      | _ -> ())
    | Some _ | None -> ())

(* Second pass for windowed counts, once t_max is known. *)
let ingest_window st ~since line =
  match parse_json line with
  | None -> ()
  | Some j ->
    let t = Option.value (num_field "t" j) ~default:0.0 in
    if t >= since then
      let flow = Option.value (str_field "flow" j) ~default:"(sim)" in
      (match str_field "event" j with
      | Some "packet_ack" -> (
        match Hashtbl.find_opt st.flows flow with
        | Some e -> e.w_acks <- e.w_acks + 1
        | None -> ())
      | Some _ | None -> ())

(* --- span phase costs from a metrics snapshot --- *)

module Profile = Utc_obs.Profile

(* The snapshot's span tree and the self-cost axis to rank it by: wall
   time when any span carries it (a [--profile] snapshot), else sim
   time. None when the snapshot has no span table. *)
let phases_of_snapshot json =
  match Option.map (member "spans") (parse_json json) with
  | Some (Some (Obj spans)) ->
    let wall_present = List.exists (fun (_, v) -> Option.is_some (num_field "wall_seconds" v)) spans in
    let field key v = Option.value (num_field key v) ~default:0.0 in
    let view v =
      {
        Utc_obs.Metrics.sv_calls = int_of_float (field "calls" v);
        sv_sim_seconds = field "sim_seconds" v;
        sv_wall_seconds = field "wall_seconds" v;
        sv_minor_words = 0.0;
        sv_major_words = 0.0;
      }
    in
    let roots = Profile.of_spans (List.map (fun (path, v) -> (path, view v)) spans) in
    if wall_present then Some (roots, (fun (n : Profile.node) -> n.self_wall), "self wall s")
    else Some (roots, (fun (n : Profile.node) -> n.self_sim), "self sim s")
  | Some _ | None -> None

(* --- rendering --- *)

let bar ~width fraction =
  let cells = int_of_float (Float.round (fraction *. float_of_int width)) in
  let cells = max 0 (min width cells) in
  String.make cells '#'

let render_frame ?(width = 72) ?(window = 5.0) ?metrics_json ~journal_lines () =
  let st =
    {
      flows = Hashtbl.create 16;
      flow_order = [];
      t_min = 0.0;
      t_max = 0.0;
      events = 0;
      entropy = [];
      ess = None;
      belief_size = None;
      recovery = None;
    }
  in
  List.iter (ingest st) journal_lines;
  let since = Float.max st.t_min (st.t_max -. window) in
  List.iter (ingest_window st ~since) journal_lines;
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "utc top — %d journal events, t=[%.3f, %.3f]s, window %.1fs\n" st.events st.t_min st.t_max
    window;
  (match List.rev st.flow_order with
  | [] -> add "\nno flow events yet\n"
  | flows ->
    add "\n%-16s %10s %10s %10s %14s\n" "flow" "sends" "acks" "drops" "goodput(bps)";
    List.iter
      (fun flow ->
        let e = Hashtbl.find st.flows flow in
        let span = Float.max 1e-9 (st.t_max -. since) in
        let goodput = float_of_int e.w_acks *. e.bits /. span in
        add "%-16s %10d %10d %10d %14.0f\n" flow e.sends e.acks e.drops goodput)
      flows);
  (match (st.ess, st.belief_size) with
  | Some ess, Some size ->
    add "\nbelief: %.0f hypotheses, ess %.2f" size ess;
    (match st.entropy with
    | (_, h) :: _ -> add ", entropy %.3f nats\n" h
    | [] -> add "\n")
  | _ -> ());
  (match List.rev st.entropy with
  | [] | [ _ ] -> ()
  | points ->
    add "%s"
      (Ascii_plot.render_one ~width:(max 32 (width - 8)) ~height:8 ~x_label:"t (s)"
         ~y_label:"entropy" ~label:"belief.entropy" points));
  (match st.recovery with
  | Some (t, from_, to_, reseeds) ->
    add "\nrecovery: %s -> %s at t=%.3fs (reseeds=%.0f)\n" from_ to_ t reseeds
  | None -> ());
  (match Option.bind metrics_json phases_of_snapshot with
  | None -> ()
  | Some (roots, cost, unit_label) -> (
    match Profile.top_nodes ~top:8 ~key:cost roots with
    | [] -> ()
    | top ->
      let max_cost = List.fold_left (fun acc n -> Float.max acc (cost n)) 1e-12 top in
      (* The path column fits the longest ranked path, and is never
         narrower than 44. *)
      let path_width =
        List.fold_left (fun acc (n : Profile.node) -> max acc (String.length n.path)) 44 top
      in
      add "\nphase costs (%s):\n" unit_label;
      List.iter
        (fun (n : Profile.node) ->
          add "  %-*s %12.6f %s (%d calls)\n" path_width n.path (cost n)
            (bar ~width:16 (cost n /. max_cost))
            n.calls)
        top));
  Buffer.contents buf
