type t = {
  id : string;
  name : string;
  doc : string;
  check : Source.t -> Diagnostic.t list;
}

let in_lib path = String.length path >= 4 && String.sub path 0 4 = "lib/"

let diag (src : Source.t) ~pos ~rule ~message =
  Diagnostic.make ~path:src.Source.path ~line:(Source.line_of_pos src pos) ~rule ~message

(* Every boundary-delimited occurrence of any of [tokens], as diagnostics. *)
let flag_tokens (src : Source.t) ~rule ~tokens ~message =
  List.concat_map
    (fun token ->
      List.map
        (fun pos -> diag src ~pos ~rule ~message:(message token))
        (Textscan.find_token src.Source.code ~token))
    tokens

(* --- R1 no-ambient-randomness --- *)

(* Flag [Random] only when used as a module path ([Random.foo]); this also
   catches [Stdlib.Random.foo], since the boundary test treats the dot
   before [Random] as a delimiter. *)
let check_r1 (src : Source.t) =
  let code = src.Source.code in
  Textscan.find_token code ~token:"Random"
  |> List.filter (fun pos ->
         let after = Textscan.skip_ws code ~pos:(pos + 6) in
         after < String.length code && code.[after] = '.')
  |> List.map (fun pos ->
         diag src ~pos ~rule:"R1"
           ~message:
             "ambient randomness (Stdlib.Random): route all randomness through the seeded \
              Utc_sim.Rng")

(* --- R2 no-wall-clock --- *)

let wall_clock_tokens = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

let check_r2 (src : Source.t) =
  if not (in_lib src.Source.path) then []
  else
    flag_tokens src ~rule:"R2" ~tokens:wall_clock_tokens ~message:(fun token ->
        Printf.sprintf
          "wall-clock read (%s) in lib/: simulated code must be a pure function of the seed; \
           benchmark timing goes through Utc_obs.Obs_clock"
          token)

(* --- R3 no-polymorphic-compare --- *)

let sort_functions =
  [
    "List.sort";
    "List.stable_sort";
    "List.fast_sort";
    "List.sort_uniq";
    "Array.sort";
    "Array.stable_sort";
    "Array.fast_sort";
  ]

(* [xs = []] / [xs <> []] in a condition is structural (polymorphic)
   equality in disguise. It happens to terminate on lists, but it is the
   same bug family R3 exists for — one abstract type in the elements and
   it raises at runtime. Only flag when the [[]] is a condition operand
   (followed by [&&], [||] or [then]): a bare [= []] elsewhere is usually
   a pattern binding or a default value the parser already disambiguates. *)
let check_r3_empty_list (src : Source.t) code =
  let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let rec back i = if i >= 0 && is_ws code.[i] then back (i - 1) else i in
  Textscan.find_token code ~token:"[]"
  |> List.filter_map (fun pos ->
         let j = back (pos - 1) in
         let op =
           if j >= 0 && code.[j] = '=' then
             (* A bare [=] only: [>=], [<=], [==], [!=], [:=] and friends
                compose a different operator. *)
             if
               j > 0
               && String.contains "<>=!:+-*/@^&|$%" code.[j - 1]
             then None
             else Some "="
           else if j >= 1 && code.[j] = '>' && code.[j - 1] = '<' then Some "<>"
           else None
         in
         match op with
         | None -> None
         | Some op ->
           let after = Textscan.skip_ws code ~pos:(pos + 2) in
           let starts_with s =
             after + String.length s <= String.length code
             && String.sub code after (String.length s) = s
           in
           let in_condition =
             starts_with "&&" || starts_with "||"
             || (match Textscan.next_token code ~pos:after with
                | Some (_, "then") -> true
                | _ -> false)
           in
           if in_condition then
             Some
               (diag src ~pos ~rule:"R3"
                  ~message:
                    (Printf.sprintf
                       "structural %s [] in a condition is polymorphic equality: match on the \
                        list (or test with a pattern) instead"
                       op))
           else None)

let check_r3 (src : Source.t) =
  let code = src.Source.code in
  let stdlib_compare =
    List.map
      (fun pos ->
        diag src ~pos ~rule:"R3"
          ~message:
            "Stdlib.compare is polymorphic: use a type-specific comparator (Float.compare, \
             Timebase.compare, String.compare, ...)")
      (Textscan.find_token code ~token:"Stdlib.compare")
  in
  let sort_sites =
    List.concat_map
      (fun fn ->
        Textscan.find_token code ~token:fn
        |> List.filter_map (fun pos ->
               match Textscan.next_token code ~pos:(pos + String.length fn) with
               | Some (_, "compare") ->
                 Some
                   (diag src ~pos ~rule:"R3"
                      ~message:
                        (Printf.sprintf
                           "polymorphic compare passed to %s: key order must not depend on \
                            structural compare; use an explicit comparator"
                           fn))
               | _ -> None))
      sort_functions
  in
  stdlib_compare @ sort_sites @ check_r3_empty_list src code

(* --- R4 no-hash-order-dependence --- *)

let r4_window_lines = 20

(* A [Hashtbl.iter]/[fold] is only deterministic downstream if its results
   are re-sorted (or reduced order-independently).  We cannot prove either
   lexically, so: flag unless some sort appears within the next
   [r4_window_lines] lines; genuinely order-independent reductions carry an
   inline [(* lint:allow R4 -- why *)]. *)
let check_r4 (src : Source.t) =
  let code = src.Source.code in
  let sorted_nearby pos =
    let line = Source.line_of_pos src pos in
    let stop = Source.line_start src (line + r4_window_lines + 1) in
    let window = String.sub code pos (stop - pos) in
    (* Any mention of sorting counts: List.sort, sort_uniq, a local
       [sorted] helper, ... *)
    let rec mentions_sort i =
      match String.index_from_opt window i 's' with
      | Some j when j + 4 <= String.length window && String.sub window j 4 = "sort" -> true
      | Some j -> mentions_sort (j + 1)
      | None -> false
    in
    mentions_sort 0
  in
  let iter_folds =
    List.concat_map
      (fun token -> Textscan.find_token code ~token)
      [ "Hashtbl.iter"; "Hashtbl.fold" ]
    |> List.filter (fun pos -> not (sorted_nearby pos))
    |> List.map (fun pos ->
           diag src ~pos ~rule:"R4"
             ~message:
               "Hashtbl iteration order is seed-irrelevant but hash-dependent: sort the results \
                before they feed ordered output, or justify with (* lint:allow R4 -- ... *)")
  in
  let hash_uses =
    List.map
      (fun pos ->
        diag src ~pos ~rule:"R4"
          ~message:
            "Hashtbl.hash as a tie-breaker makes event order depend on the memory representation; \
             use an explicit sequence number")
      (Textscan.find_token code ~token:"Hashtbl.hash")
  in
  List.sort Diagnostic.compare (iter_folds @ hash_uses)

(* --- R5 mli-coverage (file-set check) --- *)

let mli_coverage ~paths =
  let module S = Set.Make (String) in
  let set = S.of_list paths in
  paths
  |> List.filter (fun p ->
         in_lib p
         && Filename.check_suffix p ".ml"
         && not (S.mem (p ^ "i") set))
  |> List.sort String.compare
  |> List.map (fun p ->
         Diagnostic.make ~path:p ~line:1 ~rule:"R5"
           ~message:
             "missing interface: every lib/ module needs a sibling .mli so its deterministic \
              surface is explicit")

(* --- R6 no-stdout-in-lib --- *)

let stdout_tokens =
  [
    "print_string";
    "print_bytes";
    "print_char";
    "print_int";
    "print_float";
    "print_endline";
    "print_newline";
    "Printf.printf";
    "Format.printf";
    "Format.print_string";
    "Format.print_int";
    "Format.print_float";
    "Format.print_char";
    "Format.print_bool";
    "Format.print_newline";
    "Format.print_flush";
  ]

let check_r6 (src : Source.t) =
  if not (in_lib src.Source.path) then []
  else
    flag_tokens src ~rule:"R6" ~tokens:stdout_tokens ~message:(fun token ->
        Printf.sprintf
          "%s writes to stdout from lib/: return data or take a formatter; stdout belongs to \
           bin/, bench/ and examples/"
          token)

(* --- R8 no-raw-output --- *)

let r8_allowed_prefixes = [ "bin/"; "bench/"; "lib/stats/"; "lib/obs/" ]

let r8_tokens = stdout_tokens @ [ "Logs.set_reporter"; "Logs.set_level" ]

(* Broader than R6: raw terminal output and process-global Logs
   configuration are confined to the designated presentation layers
   everywhere the linter scans (so also bench helpers, examples, ...),
   not just lib/. Telemetry goes through Utc_obs; human-facing text
   through a formatter the caller passes in. *)
let check_r8 (src : Source.t) =
  let path = src.Source.path in
  let allowed =
    List.exists
      (fun prefix ->
        String.length path >= String.length prefix
        && String.sub path 0 (String.length prefix) = prefix)
      r8_allowed_prefixes
  in
  if allowed then []
  else
    flag_tokens src ~rule:"R8" ~tokens:r8_tokens ~message:(fun token ->
        Printf.sprintf
          "%s is raw output/log configuration outside bin/, bench/, lib/stats/ and lib/obs/: \
           record telemetry via Utc_obs or take a formatter"
          token)

(* --- R7 no-bare-domains --- *)

let in_parallel_lib path =
  let prefix = "lib/parallel/" in
  String.length path >= String.length prefix && String.sub path 0 (String.length prefix) = prefix

(* Like R1, flag [Domain] used as a module path ([Domain.self ()],
   [Domain.spawn], [Domain.DLS.get], ...). Anything keyed on domain
   identity — or spawning domains with an ad-hoc merge — can make results
   depend on how work was scheduled; the pool's chunk-by-index partition
   and ordered merge is the one sanctioned route. *)
let check_r7 (src : Source.t) =
  if in_parallel_lib src.Source.path then []
  else begin
    let code = src.Source.code in
    Textscan.find_token code ~token:"Domain"
    |> List.filter (fun pos ->
           let after = Textscan.skip_ws code ~pos:(pos + 6) in
           after < String.length code && code.[after] = '.')
    |> List.map (fun pos ->
           diag src ~pos ~rule:"R7"
             ~message:
               "bare Domain use outside lib/parallel: domain identity, spawning and sizing go \
                through Utc_parallel.Pool, whose chunk-by-index partition and ordered merge \
                keep results bit-identical to serial")
  end

let all =
  [
    {
      id = "R1";
      name = "no-ambient-randomness";
      doc = "Stdlib.Random is forbidden; all randomness flows through seeded Utc_sim.Rng.";
      check = check_r1;
    };
    {
      id = "R2";
      name = "no-wall-clock";
      doc =
        "Unix.gettimeofday/Unix.time/Sys.time are forbidden in lib/ outside \
         Utc_obs.Obs_clock.";
      check = check_r2;
    };
    {
      id = "R3";
      name = "no-polymorphic-compare";
      doc =
        "Stdlib.compare, bare `compare` at sort call sites, and structural `= []` / `<> []` \
         in conditions are forbidden; use type-specific comparators and list patterns.";
      check = check_r3;
    };
    {
      id = "R4";
      name = "no-hash-order-dependence";
      doc =
        "Hashtbl.iter/fold results must be sorted before feeding ordered output; Hashtbl.hash \
         must not break ties.";
      check = check_r4;
    };
    {
      id = "R5";
      name = "mli-coverage";
      doc = "Every lib/**/*.ml has a sibling .mli.";
      check = (fun _ -> []);
    };
    {
      id = "R6";
      name = "no-stdout-in-lib";
      doc = "print_*/Printf.printf/Format.printf are confined to bin/, bench/ and examples/.";
      check = check_r6;
    };
    {
      id = "R7";
      name = "no-bare-domains";
      doc =
        "Domain.self/Domain.spawn and every other Domain primitive are forbidden outside \
         lib/parallel; parallelism goes through Utc_parallel.Pool's deterministic \
         partition/merge.";
      check = check_r7;
    };
    {
      id = "R8";
      name = "no-raw-output";
      doc =
        "print_*/Printf.printf/Format.printf and Logs.set_reporter/Logs.set_level are \
         confined to bin/, bench/, lib/stats/ and lib/obs/.";
      check = check_r8;
    };
  ]

let find id = List.find_opt (fun r -> r.id = id) all
