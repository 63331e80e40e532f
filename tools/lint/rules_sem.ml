type t = { id : string; name : string; doc : string }

let all =
  [
    {
      id = "R9";
      name = "no-unsync-shared-mutation";
      doc =
        "functions reachable from a Pool job closure must not write escaping \
         mutable state without Atomic/Mutex";
    };
    {
      id = "R10";
      name = "pure-inference";
      doc =
        "lib/inference, lib/model and lib/utility must be transitively free of \
         IO and unguarded global mutation";
    };
    {
      id = "R11";
      name = "hotpath-alloc";
      doc =
        "(* lint:hotpath *) functions must not allocate closures/lists/@/^ or \
         serialise with Marshal.to_* in loop context";
    };
    {
      id = "R12";
      name = "no-swallowed-exceptions";
      doc = "reject `try ... with _ ->` that discards the exception";
    };
    {
      id = "R13";
      name = "exported-value-has-reader";
      doc =
        "every val in a lib/ interface is read from lib/, bin/ or examples/ \
         outside its own module";
    };
  ]

let diag = Diagnostic.make

(* --- R9: static race detector over pool job closures --- *)

let check_r9 graph =
  List.concat_map
    (fun (host : Effects.summary) ->
      List.concat_map
        (fun (job : Effects.job) ->
          List.filter_map
            (fun (o : Callgraph.offense) ->
              match o.Callgraph.o_kind with
              | `Io -> None
              | `Write _ ->
                let local = o.Callgraph.o_summary.Effects.s_file = host.Effects.s_file in
                let line = if local then o.Callgraph.o_line else job.Effects.j_line in
                let where =
                  if local then ""
                  else
                    Printf.sprintf " in %s.%s (%s:%d)" o.Callgraph.o_summary.Effects.s_module
                      o.Callgraph.o_summary.Effects.s_name o.Callgraph.o_summary.Effects.s_file
                      o.Callgraph.o_line
                in
                Some
                  (diag ~path:host.Effects.s_file ~line ~rule:"R9"
                     ~message:
                       (Printf.sprintf
                          "pool job reaches unsynchronized %s%s; guard with Atomic/Mutex or a \
                           per-run handle"
                          o.Callgraph.o_what where)))
            (Callgraph.job_taint graph ~host job))
        host.Effects.s_pool_jobs)
    (Callgraph.summaries graph)

(* --- R10: transitively pure inference/model/utility --- *)

let r10_prefixes = [ "lib/inference/"; "lib/model/"; "lib/utility/" ]

let has_prefix prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let r10_protected path = List.exists (fun p -> has_prefix p path) r10_prefixes

let check_r10 graph =
  List.concat_map
    (fun (s : Effects.summary) ->
      if not (r10_protected s.Effects.s_file) then []
      else
        List.filter_map
          (fun (o : Callgraph.offense) ->
            let violation =
              match o.Callgraph.o_kind with
              | `Io -> Some (Printf.sprintf "performs IO (%s)" o.Callgraph.o_what)
              | `Write (Effects.Global _) ->
                Some (Printf.sprintf "mutates global state (%s)" o.Callgraph.o_what)
              | `Write _ -> None (* local-ish mutation: not a purity breach *)
            in
            Option.map
              (fun what ->
                let local = r10_protected o.Callgraph.o_summary.Effects.s_file in
                let path = if local then o.Callgraph.o_summary.Effects.s_file else s.Effects.s_file in
                let line = if local then o.Callgraph.o_line else s.Effects.s_line in
                let via =
                  if local then ""
                  else
                    Printf.sprintf " via %s.%s (%s:%d)" o.Callgraph.o_summary.Effects.s_module
                      o.Callgraph.o_summary.Effects.s_name o.Callgraph.o_summary.Effects.s_file
                      o.Callgraph.o_line
                in
                diag ~path ~line ~rule:"R10"
                  ~message:(Printf.sprintf "inference layer %s%s" what via))
              violation)
          (Callgraph.taint graph s))
    (Callgraph.summaries graph)

(* --- R11: hot-path allocation inventory --- *)

let check_r11 graph =
  List.concat_map
    (fun (s : Effects.summary) ->
      if not s.Effects.s_hotpath then []
      else
        List.map
          (fun (a : Effects.alloc) ->
            diag ~path:s.Effects.s_file ~line:a.Effects.a_line ~rule:"R11"
              ~message:
                (Printf.sprintf "hot path '%s' allocates %s in loop context" s.Effects.s_name
                   a.Effects.a_what))
          s.Effects.s_allocs)
    (Callgraph.summaries graph)

(* --- R12: try ... with _ -> --- *)

let check_r12 (ast : Ast_source.t) =
  let open Parsetree in
  let found = ref [] in
  let iter_expr iterator e =
    (match e.pexp_desc with
    | Pexp_try (_, cases) ->
      List.iter
        (fun c ->
          match c.pc_lhs.ppat_desc with
          | Ppat_any ->
            found := Ast_source.line_of c.pc_lhs.ppat_loc :: !found
          | _ -> ())
        cases
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.expr iterator e
  in
  let iterator = { Ast_iterator.default_iterator with Ast_iterator.expr = iter_expr } in
  iterator.Ast_iterator.structure iterator ast.Ast_source.structure;
  List.rev_map
    (fun line ->
      diag ~path:ast.Ast_source.source.Source.path ~line ~rule:"R12"
        ~message:"`with _ ->` swallows the exception; match specific ones or re-raise")
    !found

(* --- R13: every exported lib value has a reader outside tests --- *)

module SSet = Set.Make (String)
module SMap = Map.Make (String)

let r13_reader_prefixes = [ "lib/"; "bin/"; "examples/" ]

let flatten lid = match Longident.flatten lid with cs -> cs | exception _ -> []

(* The ["Module.name"] keys an implementation reads outside its own
   module. A qualified identifier keys by its last two components, after
   the file's top-level module aliases are expanded; a bare one under a
   local open of [M] ([M.( ... )] or [let open M in]) keys as [M.name].
   The walk reaches [let () = ...] bodies and optional-argument defaults
   like any other expression. Record fields are labels, not identifiers,
   so [s.Summary.mean] reads no [val Summary.mean]. *)
let r13_references (ast : Ast_source.t) =
  let open Parsetree in
  let aliases =
    List.fold_left
      (fun acc item ->
        match item.pstr_desc with
        | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr = { pmod_desc = Pmod_ident lid; _ }; _ } ->
          SMap.add name (flatten lid.Asttypes.txt) acc
        | _ -> acc)
      SMap.empty ast.Ast_source.structure
  in
  let resolve lid =
    match flatten lid with
    | head :: rest when SMap.mem head aliases -> List.rev (SMap.find head aliases @ rest)
    | components -> List.rev components
  in
  let found = ref SSet.empty and opened = ref [] in
  let add m x =
    if not (String.equal m ast.Ast_source.module_name) then found := SSet.add (m ^ "." ^ x) !found
  in
  let expr iterator e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
      match resolve txt with
      | [ x ] -> List.iter (fun m -> add m x) !opened
      | x :: m :: _ -> add m x
      | [] -> ())
    | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ }, body) ->
      let outer = !opened in
      (match resolve lid.Asttypes.txt with m :: _ -> opened := m :: outer | [] -> ());
      iterator.Ast_iterator.expr iterator body;
      opened := outer
    | _ -> Ast_iterator.default_iterator.Ast_iterator.expr iterator e
  in
  let iterator = { Ast_iterator.default_iterator with Ast_iterator.expr } in
  iterator.Ast_iterator.structure iterator ast.Ast_source.structure;
  !found

let check_r13 sources asts =
  let read =
    List.fold_left
      (fun acc (ast : Ast_source.t) ->
        if List.exists (fun p -> has_prefix p ast.Ast_source.source.Source.path) r13_reader_prefixes
        then SSet.union acc (r13_references ast)
        else acc)
      SSet.empty asts
  in
  List.concat_map
    (fun (src : Source.t) ->
      let path = src.Source.path in
      match if has_prefix "lib/" path then Ast_source.parse_interface src else None with
      | None -> []
      | Some signature ->
        let m = Ast_source.module_name_of_path path in
        List.filter_map
          (fun (item : Parsetree.signature_item) ->
            match item.Parsetree.psig_desc with
            | Parsetree.Psig_value { pval_name = { txt = name; _ }; _ }
              when not (SSet.mem (m ^ "." ^ name) read) ->
              Some
                (diag ~path ~line:(Ast_source.line_of item.Parsetree.psig_loc) ~rule:"R13"
                   ~message:
                     (Printf.sprintf
                        "%s.%s has no reader in lib/, bin/ or examples/ outside its module; \
                         delete it, drop it from the interface, or allow it with a reason"
                        m name))
            | _ -> None)
          signature)
    sources

let check sources =
  let asts = List.filter_map Ast_source.parse sources in
  let summaries = List.concat_map Effects.summarize asts in
  let graph = Callgraph.build summaries in
  check_r9 graph @ check_r10 graph @ check_r11 graph @ List.concat_map check_r12 asts
  @ check_r13 sources asts
