let is_source_file name =
  Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

let skip_dir name = name = "_build" || (String.length name > 0 && name.[0] = '.')

let discover ~roots =
  let acc = ref [] in
  let rec walk path =
    if Sys.is_directory path then
      Array.iter
        (fun entry -> if not (skip_dir entry) then walk (Filename.concat path entry))
        (Sys.readdir path)
    else if is_source_file path then acc := path :: !acc
  in
  List.iter
    (fun root ->
      if not (Sys.file_exists root) then failwith (Printf.sprintf "no such file or directory: %s" root);
      walk root)
    roots;
  List.sort String.compare (List.map Source.normalize_path !acc)

let run_sources ~allowlist sources =
  (* Pass 1: the lexical rules, on blanked text. *)
  let lexical =
    List.concat_map
      (fun src -> List.concat_map (fun (rule : Rules.t) -> rule.Rules.check src) Rules.all)
      sources
  in
  (* Pass 2: the semantic rules, on the parsed file set — built over all
     sources at once so the call graph links across modules. *)
  let semantic = Rules_sem.check sources in
  let coverage = Rules.mli_coverage ~paths:(List.map (fun s -> s.Source.path) sources) in
  (* Inline suppressions and the allowlist apply uniformly to both passes. *)
  let suppressions =
    List.map (fun src -> (src.Source.path, Suppress.of_source src)) sources
  in
  lexical @ semantic @ coverage
  |> List.filter (fun (d : Diagnostic.t) ->
         match List.assoc_opt d.Diagnostic.path suppressions with
         | Some supp -> not (Suppress.active supp ~rule:d.Diagnostic.rule ~line:d.Diagnostic.line)
         | None -> true)
  |> List.filter (fun (d : Diagnostic.t) ->
         not (Allowlist.allows allowlist ~rule:d.Diagnostic.rule ~path:d.Diagnostic.path))
  |> List.sort_uniq Diagnostic.compare

let run ~allowlist ~roots =
  run_sources ~allowlist (List.map Source.load (discover ~roots))
