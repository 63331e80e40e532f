(* Counter increments are atomic: pooled sweeps ([Harness.run_many])
   legitimately bump process-global counters from several domains at
   once, and a plain read-modify-write would lose updates — making even
   the *totals* nondeterministic. Atomic adds keep counter totals exact
   order-independent sums at any domain count. *)
type counter = { c_name : string; count : int Atomic.t }

type gauge = { mutable value : float; mutable set : bool }

type histogram = {
  bounds : float array; (* strictly increasing upper bounds *)
  counts : int array; (* length = Array.length bounds + 1; last is overflow *)
  mutable total : int;
  mutable sum : float;
}

type span = {
  s_name : string; (* full /-separated path, e.g. "wakeup/belief.update" *)
  mutable calls : int;
  mutable wall_seconds : float;
  mutable sim_seconds : float;
  mutable minor_words : float; (* Gc.minor_words delta, cumulative *)
  mutable major_words : float; (* Gc major_words delta, cumulative *)
}

let enabled_flag = ref false
let enabled () = !enabled_flag
let enable () = enabled_flag := true
let disable () = enabled_flag := false

(* The registration tables are only mutated when a handle is first
   created (module-init time in practice); the lock makes late
   registration — including family children resolved mid-run — safe.
   The same lock guards every non-atomic value mutation: gauge sets,
   histogram observations and span totals are plain read-modify-writes
   on process-global records, and pooled sweeps reach them from several
   domains at once (label-disjoint children still share the record's
   cache line with the registry). Counters stay lock-free Atomics; the
   disabled path never takes the lock. *)
let lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 64
let spans : (string, span) Hashtbl.t = Hashtbl.create 64

let register_locked table name make =
  match Hashtbl.find_opt table name with
  | Some entry -> entry
  | None ->
    let entry = make () in
    Hashtbl.replace table name entry;
    entry

let register table name make =
  Mutex.lock lock;
  let entry = register_locked table name make in
  Mutex.unlock lock;
  entry

let make_counter name () = { c_name = name; count = Atomic.make 0 }
let counter name = register counters name (make_counter name)
let add c n = if !enabled_flag then ignore (Atomic.fetch_and_add c.count n)
let incr c = add c 1

let make_gauge () = { value = 0.0; set = false }
let gauge name = register gauges name make_gauge

let set_gauge g v =
  if !enabled_flag then begin
    Mutex.lock lock;
    g.value <- v;
    g.set <- true;
    Mutex.unlock lock
  end

let default_buckets = [ 1e-3; 1e-2; 1e-1; 1.0; 10.0; 100.0; 1e3; 1e4; 1e5; 1e6; 1e7 ]

let make_histogram ?(buckets = default_buckets) () =
  let sorted = List.sort_uniq Float.compare buckets in
  (match sorted with
  | [] -> invalid_arg "Metrics.histogram: no buckets"
  | _ :: _ -> ());
  let bounds = Array.of_list sorted in
  {
    bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    total = 0;
    sum = 0.0;
  }

let histogram ?buckets name = register histograms name (make_histogram ?buckets)

(* O(#buckets) with a small fixed bucket list: constant in the number of
   samples, which is the cost that matters on the hot paths. *)
let observe h v =
  if !enabled_flag then begin
    let n = Array.length h.bounds in
    let rec slot i = if i >= n then n else if v <= h.bounds.(i) then i else slot (i + 1) in
    let i = slot 0 in
    Mutex.lock lock;
    h.counts.(i) <- h.counts.(i) + 1;
    h.total <- h.total + 1;
    h.sum <- h.sum +. v;
    Mutex.unlock lock
  end

let span_entry path =
  register spans path (fun () ->
      {
        s_name = path;
        calls = 0;
        wall_seconds = 0.0;
        sim_seconds = 0.0;
        minor_words = 0.0;
        major_words = 0.0;
      })

(* The implicit span stack, one per domain (mirroring Sink's per-run
   routing): the Dls value is the current full path, "" at the root.
   Per Dls's contract it only decides *where* a recording lands — which
   path-keyed tree node accumulates — never a computed result.

   Pool caveat: [Pool.map_list] runs its last chunk on the caller, under
   whatever spans the caller has open, while a spawned domain starts at
   the root. Spans that wrap a pooled top-level job (harness / mean-field
   runs) must therefore pass [~root:true], which re-roots the subtree at
   the span's own name and keeps every path — hence the aggregated tree —
   independent of which domain ran the job. *)
let path_key : string Utc_parallel.Dls.key = Utc_parallel.Dls.new_key (fun () -> "")

let span ?now ?(root = false) ~name f =
  if not !enabled_flag then f ()
  else begin
    let parent = Utc_parallel.Dls.get path_key in
    let path = if root || String.length parent = 0 then name else parent ^ "/" ^ name in
    let s = span_entry path in
    Utc_parallel.Dls.set path_key path;
    (* [Gc.quick_stat]'s [minor_words] moves only at minor collections
       (OCaml 5.1), so minor words are read from [Gc.minor_words], which
       counts the current minor heap's allocations too. *)
    let gc0 = Gc.quick_stat () in
    let minor0 = Gc.minor_words () in
    let wall0 = Obs_clock.now () in
    let sim0 =
      match now with
      | Some n -> n ()
      | None -> 0.0
    in
    (match now with
    | Some _ -> Sink.record ~at:sim0 (Event.Span_begin { path })
    | None -> ());
    Fun.protect
      ~finally:(fun () ->
        let minor1 = Gc.minor_words () in
        let wall = Obs_clock.elapsed_since wall0 in
        let gc1 = Gc.quick_stat () in
        let sim1 =
          match now with
          | Some n -> n ()
          | None -> 0.0
        in
        Mutex.lock lock;
        s.calls <- s.calls + 1;
        s.wall_seconds <- s.wall_seconds +. wall;
        s.sim_seconds <- s.sim_seconds +. (sim1 -. sim0);
        s.minor_words <- s.minor_words +. (minor1 -. minor0);
        s.major_words <- s.major_words +. (gc1.Gc.major_words -. gc0.Gc.major_words);
        Mutex.unlock lock;
        Utc_parallel.Dls.set path_key parent;
        match now with
        | Some _ -> Sink.record ~at:sim1 (Event.Span_end { path })
        | None -> ())
      f
  end

(* --- labeled families --- *)

type labels = (string * string) list

type 'a family = {
  f_name : string;
  f_max : int;
  f_make : string -> 'a;
  f_children : (string, 'a) Hashtbl.t;
  mutable f_count : int;
  mutable f_other : 'a option;
}

let default_max_children = 1024

(* Bumped whenever a family routes a resolution to its [other] child.
   Registered eagerly so it appears (at 0) in every snapshot once this
   module is linked, and counted even while recording is disabled: cap
   overflow is a registration-shape fact, not a sample. *)
let overflow_counter = counter "utc_obs_family_overflow"

let valid_label_key k =
  String.length k > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '.' || c = '-')
       k

(* [name{k1="v1",k2="v2"}], keys sorted, values JSON-escaped: one
   canonical rendering per label set, so child identity, registry keys
   and snapshot ordering (name-then-labels under String.compare) all
   coincide. *)
let render_name name labels =
  match labels with
  | [] -> name
  | _ :: _ ->
    let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
    let rec check_dups = function
      | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg (Printf.sprintf "Metrics: duplicate label key %S in family %s" a name)
        else check_dups rest
      | _ -> ()
    in
    check_dups sorted;
    List.iter
      (fun (k, _) ->
        if not (valid_label_key k) then
          invalid_arg (Printf.sprintf "Metrics: invalid label key %S in family %s" k name))
      sorted;
    let buf = Buffer.create (String.length name + 16) in
    Buffer.add_string buf name;
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_char buf '=';
        Buffer.add_string buf (Obs_json.quote v))
      sorted;
    Buffer.add_char buf '}';
    Buffer.contents buf

let other_name name = name ^ "{other=\"true\"}"

(* [f_make] is called with the registry lock held (see [labeled]) and
   must not raise: validate everything at family-creation time. *)
let family ~table ~make ?(max_children = default_max_children) name =
  if max_children <= 0 then invalid_arg "Metrics: max_children must be positive";
  {
    f_name = name;
    f_max = max_children;
    f_make = (fun full -> register_locked table full (make full));
    f_children = Hashtbl.create 16;
    f_count = 0;
    f_other = None;
  }

let counter_family ?max_children name =
  family ~table:counters ~make:make_counter ?max_children name

let gauge_family ?max_children name =
  family ~table:gauges ~make:(fun _ -> make_gauge) ?max_children name

let histogram_family ?buckets ?max_children name =
  (match List.sort_uniq Float.compare (Option.value buckets ~default:default_buckets) with
  | [] -> invalid_arg "Metrics.histogram_family: no buckets"
  | _ :: _ -> ());
  family ~table:histograms ~make:(fun _ -> make_histogram ?buckets) ?max_children name

(* Resolution is a locked lookup on the steady state; a child is built
   at most once per (family, label set). Callers on hot paths should
   resolve once and cache the child — recording through a child is
   exactly as cheap as through an unlabeled handle, because it *is* one.
   The registry lock also guards the family's own child table, since
   pooled jobs resolve their per-run children concurrently. *)
let labeled fam labels =
  let full = render_name fam.f_name labels in
  Mutex.lock lock;
  let child =
    match Hashtbl.find_opt fam.f_children full with
    | Some child -> child
    | None ->
      if fam.f_count < fam.f_max then begin
        let child = fam.f_make full in
        Hashtbl.replace fam.f_children full child;
        fam.f_count <- fam.f_count + 1;
        child
      end
      else begin
        (* Over the cap: route to the reserved catch-all child so
           cardinality stays bounded no matter what labels show up. *)
        ignore (Atomic.fetch_and_add overflow_counter.count 1);
        match fam.f_other with
        | Some child -> child
        | None ->
          let child = fam.f_make (other_name fam.f_name) in
          fam.f_other <- Some child;
          child
      end
  in
  Mutex.unlock lock;
  child

let reset () =
  Mutex.lock lock;
  (* lint:allow R4 -- per-entry zeroing; no ordered output is produced *)
  Hashtbl.iter (fun _ c -> Atomic.set c.count 0) counters;
  (* lint:allow R4 -- per-entry zeroing; no ordered output is produced *)
  Hashtbl.iter
    (fun _ g ->
      g.value <- 0.0;
      g.set <- false)
    gauges;
  (* lint:allow R4 -- per-entry zeroing; no ordered output is produced *)
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.counts 0 (Array.length h.counts) 0;
      h.total <- 0;
      h.sum <- 0.0)
    histograms;
  (* lint:allow R4 -- per-entry zeroing; no ordered output is produced *)
  Hashtbl.iter
    (fun _ s ->
      s.calls <- 0;
      s.wall_seconds <- 0.0;
      s.sim_seconds <- 0.0;
      s.minor_words <- 0.0;
      s.major_words <- 0.0)
    spans;
  Mutex.unlock lock

(* --- snapshots --- *)

type histogram_view = {
  hv_bounds : float list;
  hv_counts : int list;
  hv_total : int;
  hv_sum : float;
}

type span_view = {
  sv_calls : int;
  sv_sim_seconds : float;
  sv_wall_seconds : float; (* profiling only; excluded from determinism diffs *)
  sv_minor_words : float; (* profiling only *)
  sv_major_words : float; (* profiling only *)
}

type snapshot = {
  at : float;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_view) list;
  spans : (string * span_view) list;
}

(* Family children are registered under their canonical rendered name, so
   one name-sort yields the name-then-label order the determinism
   contract promises: '{' < any identifier character, so a family's
   children group together right after its unlabeled sibling (if any). *)
let sorted_bindings table view =
  Hashtbl.fold (fun name entry acc -> (name, view entry) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot ~at =
  Mutex.lock lock;
  let s =
    {
      at;
      counters = sorted_bindings counters (fun c -> Atomic.get c.count);
      gauges =
        sorted_bindings gauges (fun g -> if g.set then Some g.value else None)
        |> List.filter_map (fun (name, v) -> Option.map (fun v -> (name, v)) v);
      histograms =
        sorted_bindings histograms (fun h ->
            {
              hv_bounds = Array.to_list h.bounds;
              hv_counts = Array.to_list h.counts;
              hv_total = h.total;
              hv_sum = h.sum;
            });
      spans =
        sorted_bindings spans (fun s ->
            {
              sv_calls = s.calls;
              sv_sim_seconds = s.sim_seconds;
              sv_wall_seconds = s.wall_seconds;
              sv_minor_words = s.minor_words;
              sv_major_words = s.major_words;
            });
    }
  in
  Mutex.unlock lock;
  s

let snapshot_json ?(profile = true) s =
  let open Obs_json in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{";
  Buffer.add_string buf (quote "at" ^ ":" ^ number s.at);
  Buffer.add_string buf ("," ^ quote "counters" ^ ":{");
  Buffer.add_string buf
    (String.concat "," (List.map (fun (n, c) -> quote n ^ ":" ^ string_of_int c) s.counters));
  Buffer.add_string buf ("}," ^ quote "gauges" ^ ":{");
  Buffer.add_string buf
    (String.concat "," (List.map (fun (n, v) -> quote n ^ ":" ^ number v) s.gauges));
  Buffer.add_string buf ("}," ^ quote "histograms" ^ ":{");
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun (n, h) ->
            quote n ^ ":"
            ^ obj
                [
                  ("total", Int h.hv_total);
                  ("sum", Float h.hv_sum);
                  ("bounds", Str (String.concat ";" (List.map number h.hv_bounds)));
                  ("counts", Str (String.concat ";" (List.map string_of_int h.hv_counts)));
                ])
          s.histograms));
  Buffer.add_string buf ("}," ^ quote "spans" ^ ":{");
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun (n, sp) ->
            let fields =
              [ ("calls", Int sp.sv_calls); ("sim_seconds", Float sp.sv_sim_seconds) ]
              @
              if profile then
                [
                  ("wall_seconds", Float sp.sv_wall_seconds);
                  ("minor_words", Float sp.sv_minor_words);
                  ("major_words", Float sp.sv_major_words);
                ]
              else []
            in
            quote n ^ ":" ^ obj fields)
          s.spans));
  Buffer.add_string buf "}}";
  Buffer.contents buf

let pp_snapshot ppf s =
  Format.fprintf ppf "metrics @ t=%ss@." (Obs_json.number s.at);
  (match s.counters with
  | [] -> ()
  | _ :: _ ->
    Format.fprintf ppf "counters:@.";
    List.iter (fun (n, c) -> Format.fprintf ppf "  %-36s %12d@." n c) s.counters);
  (match s.gauges with
  | [] -> ()
  | _ :: _ ->
    Format.fprintf ppf "gauges:@.";
    List.iter (fun (n, v) -> Format.fprintf ppf "  %-36s %12s@." n (Obs_json.number v)) s.gauges);
  (match s.histograms with
  | [] -> ()
  | _ :: _ ->
    Format.fprintf ppf "histograms:@.";
    List.iter
      (fun (n, h) ->
        Format.fprintf ppf "  %-36s total=%d sum=%s@." n h.hv_total (Obs_json.number h.hv_sum);
        let bounds = h.hv_bounds @ [ Float.infinity ] in
        List.iteri
          (fun i c ->
            if c > 0 then
              Format.fprintf ppf "    <= %-12s %12d@." (Obs_json.number (List.nth bounds i)) c)
          h.hv_counts)
      s.histograms);
  match s.spans with
  | [] -> ()
  | _ :: _ ->
    Format.fprintf ppf "spans (wall/alloc are profiling-only, excluded from determinism diffs):@.";
    List.iter
      (fun (n, sp) ->
        Format.fprintf ppf "  %-36s calls=%-8d sim=%-12s wall=%.6fs minor=%.0fw major=%.0fw@." n
          sp.sv_calls
          (Obs_json.number sp.sv_sim_seconds ^ "s")
          sp.sv_wall_seconds sp.sv_minor_words sp.sv_major_words)
      s.spans
