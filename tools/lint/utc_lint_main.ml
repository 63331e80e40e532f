(* Determinism linter CLI.

   Exit status: 0 clean, 1 violations found, 2 usage/configuration error.
   Findings go to stdout in the selected format (default: one per line as
   "path:line: RULE message", sorted). *)

let usage () =
  prerr_endline
    "usage: utc_lint_main [--allowlist FILE] [--format text|json|sarif]\n\
    \                     [--timing-out FILE] [--list-rules] [DIR-OR-FILE...]\n\
     \n\
     Scans every .ml/.mli under the given roots (default: lib bin\n\
     examples) and reports violations of the determinism rules: the\n\
     lexical pass R1-R8 and the semantic (AST) pass R9-R13.\n\
     Suppress a finding inline with (* lint:allow <rule> -- reason *) or\n\
     with an allowlist entry (see tools/lint/lint.allow).\n\
     --format json emits a plain array; --format sarif emits SARIF 2.1.0\n\
     for CI annotation upload. --timing-out writes a BENCH-style JSON\n\
     record of whole-repo analysis wall time."

let list_rules () =
  List.iter
    (fun (r : Utc_lint.Rules.t) ->
      Printf.printf "%s %-25s %s\n" r.Utc_lint.Rules.id r.Utc_lint.Rules.name
        r.Utc_lint.Rules.doc)
    Utc_lint.Rules.all;
  List.iter
    (fun (r : Utc_lint.Rules_sem.t) ->
      Printf.printf "%s %-25s %s\n" r.Utc_lint.Rules_sem.id r.Utc_lint.Rules_sem.name
        r.Utc_lint.Rules_sem.doc)
    Utc_lint.Rules_sem.all

type options = {
  allowlist_file : string option;
  format : Utc_lint.Report.format;
  timing_out : string option;
  roots : string list;
}

let write_timing path ~files ~findings ~seconds =
  let out = open_out path in
  Printf.fprintf out
    "{\"bench\": \"lint\", \"files\": %d, \"findings\": %d, \"wall_seconds\": %.6f}\n" files
    findings seconds;
  close_out out

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse args opts =
    match args with
    | [] -> Ok { opts with roots = List.rev opts.roots }
    | "--help" :: _ | "-h" :: _ ->
      usage ();
      exit 0
    | "--list-rules" :: _ ->
      list_rules ();
      exit 0
    | "--allowlist" :: file :: rest -> parse rest { opts with allowlist_file = Some file }
    | "--allowlist" :: [] -> Error "--allowlist needs a file argument"
    | "--format" :: name :: rest -> (
      match Utc_lint.Report.format_of_string name with
      | Some format -> parse rest { opts with format }
      | None -> Error (Printf.sprintf "unknown format %s (expected text, json or sarif)" name))
    | "--format" :: [] -> Error "--format needs an argument (text, json or sarif)"
    | "--timing-out" :: file :: rest -> parse rest { opts with timing_out = Some file }
    | "--timing-out" :: [] -> Error "--timing-out needs a file argument"
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      Error (Printf.sprintf "unknown option %s" arg)
    | root :: rest -> parse rest { opts with roots = root :: opts.roots }
  in
  match
    parse args { allowlist_file = None; format = Utc_lint.Report.Text; timing_out = None; roots = [] }
  with
  | Error msg ->
    Printf.eprintf "utc_lint: %s\n" msg;
    usage ();
    exit 2
  | Ok opts -> (
    let roots = if opts.roots = [] then [ "lib"; "bin"; "examples" ] else opts.roots in
    try
      let allowlist =
        match opts.allowlist_file with
        | Some file -> Utc_lint.Allowlist.load file
        | None -> Utc_lint.Allowlist.empty
      in
      let t0 = Unix.gettimeofday () in
      let files = Utc_lint.Engine.discover ~roots in
      let sources = List.map Utc_lint.Source.load files in
      let findings = Utc_lint.Engine.run_sources ~allowlist sources in
      let elapsed = Unix.gettimeofday () -. t0 in
      Option.iter
        (fun path ->
          write_timing path ~files:(List.length files) ~findings:(List.length findings)
            ~seconds:elapsed)
        opts.timing_out;
      print_string (Utc_lint.Report.render opts.format findings);
      match findings with
      | [] -> exit 0
      | _ :: _ ->
        Printf.eprintf "utc_lint: %d violation(s)\n" (List.length findings);
        exit 1
    with
    | Failure msg | Sys_error msg ->
      Printf.eprintf "utc_lint: %s\n" msg;
      exit 2)
