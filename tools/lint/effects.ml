open Parsetree
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type root =
  | Fresh
  | Param of string
  | Global of string
  | Call_result of string
  | Derived of string
  | Opaque

type write = { w_line : int; w_target : string; w_what : string; w_root : root }
type call = { c_path : string; c_line : int; c_args : (Asttypes.arg_label * root) list }
type alloc = { a_line : int; a_what : string }
type job = { j_line : int; j_calls : call list; j_writes : write list }
type freshness = string list option

type summary = {
  s_file : string;
  s_module : string;
  s_name : string;
  s_line : int;
  s_params : (Asttypes.arg_label * string) list;
  s_writes : write list;
  s_io : (string * int) list;
  s_guarded : bool;
  s_uses_atomic : bool;
  s_calls : call list;
  s_allocs : alloc list;
  s_pool_jobs : job list;
  s_hotpath : bool;
  s_constructs : freshness;
}

(* --- name tables --- *)

let hof_names =
  [
    "List.iter"; "List.iteri"; "List.map"; "List.mapi"; "List.rev_map"; "List.map2";
    "List.fold_left"; "List.fold_right"; "List.filter"; "List.filter_map"; "List.concat_map";
    "List.partition"; "List.for_all"; "List.exists"; "List.find"; "List.find_opt";
    "List.find_map"; "List.init"; "List.sort"; "List.stable_sort"; "List.sort_uniq";
    "Array.iter"; "Array.iteri"; "Array.map"; "Array.mapi"; "Array.fold_left";
    "Array.fold_right"; "Array.init"; "Array.for_all"; "Array.exists"; "Array.sort";
    "Array.stable_sort"; "Array.fast_sort";
    "Seq.iter"; "Seq.map"; "Seq.fold_left"; "Seq.filter"; "Seq.filter_map";
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.filter_map_inplace";
    "Queue.iter"; "Queue.fold"; "Stack.iter";
    "String.iter"; "String.map"; "String.fold_left"; "String.init"; "String.concat_map";
    "Pool.map_list";
  ]

let pool_entry_names = [ "Pool.map_list"; "Harness.run_many" ]

(* Serialisers build a fresh byte image of their argument per call. *)
let serialisers =
  [ "Marshal.to_string"; "Marshal.to_bytes"; "Marshal.to_buffer"; "Marshal.to_channel" ]

(* Constructors whose result is freshly allocated, hence provably
   unshared when bound locally. *)
let fresh_ctor_names =
  [
    "ref"; "Atomic.make";
    "Hashtbl.create"; "Hashtbl.copy";
    "Buffer.create"; "Queue.create"; "Stack.create";
    "Array.make"; "Array.create_float"; "Array.init"; "Array.copy"; "Array.of_list";
    "Array.to_list"; "Array.map"; "Array.mapi"; "Array.append"; "Array.concat";
    "Array.sub"; "Array.of_seq"; "Array.make_matrix";
    "Bytes.create"; "Bytes.make"; "Bytes.copy"; "Bytes.of_string"; "Bytes.sub";
    "List.init"; "List.map"; "List.mapi"; "List.rev_map"; "List.filter";
    "List.filter_map"; "List.append"; "List.concat"; "List.concat_map"; "List.rev";
    "List.rev_append"; "List.sort"; "List.stable_sort"; "List.sort_uniq"; "List.of_seq";
    "String.concat"; "String.init"; "String.map"; "String.sub"; "Printf.sprintf";
    "Format.asprintf"; "Marshal.to_string"; "Lexing.from_string";
  ]

(* Mutating stdlib calls: suffix -> positional indices of the mutated
   argument(s). *)
let mutator_table =
  [
    (":=", [ 0 ]); ("incr", [ 0 ]); ("decr", [ 0 ]);
    ("Hashtbl.replace", [ 0 ]); ("Hashtbl.add", [ 0 ]); ("Hashtbl.remove", [ 0 ]);
    ("Hashtbl.reset", [ 0 ]); ("Hashtbl.clear", [ 0 ]); ("Hashtbl.filter_map_inplace", [ 1 ]);
    ("Buffer.add_string", [ 0 ]); ("Buffer.add_char", [ 0 ]); ("Buffer.add_bytes", [ 0 ]);
    ("Buffer.add_buffer", [ 0 ]); ("Buffer.add_substring", [ 0 ]);
    ("Buffer.add_subbytes", [ 0 ]); ("Buffer.add_utf_8_uchar", [ 0 ]);
    ("Buffer.clear", [ 0 ]); ("Buffer.reset", [ 0 ]); ("Buffer.truncate", [ 0 ]);
    ("Queue.push", [ 1 ]); ("Queue.add", [ 1 ]); ("Queue.pop", [ 0 ]); ("Queue.take", [ 0 ]);
    ("Queue.take_opt", [ 0 ]); ("Queue.clear", [ 0 ]); ("Queue.transfer", [ 0; 1 ]);
    ("Stack.push", [ 1 ]); ("Stack.pop", [ 0 ]); ("Stack.clear", [ 0 ]);
    ("Array.set", [ 0 ]); ("Array.unsafe_set", [ 0 ]); ("Array.fill", [ 0 ]);
    ("Array.blit", [ 2 ]); ("Array.sort", [ 1 ]); ("Array.stable_sort", [ 1 ]);
    ("Array.fast_sort", [ 1 ]);
    ("Bytes.set", [ 0 ]); ("Bytes.unsafe_set", [ 0 ]); ("Bytes.fill", [ 0 ]);
    ("Bytes.blit", [ 2 ]);
  ]

let io_names =
  [
    "print_string"; "print_char"; "print_bytes"; "print_int"; "print_float";
    "print_endline"; "print_newline"; "prerr_string"; "prerr_endline"; "prerr_newline";
    "output_string"; "output_char"; "output_bytes"; "output_value"; "output_byte";
    "open_out"; "open_out_bin"; "open_in"; "open_in_bin"; "close_out"; "close_in";
    "read_line"; "read_int"; "read_int_opt"; "input_line"; "input_char"; "really_input";
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "Sys.command"; "Sys.remove"; "Sys.rename"; "Sys.mkdir"; "Sys.rmdir"; "Sys.chdir";
    "exit"; "at_exit"; "Stdlib.exit";
  ]

let io_module_heads = [ "Out_channel"; "In_channel" ]

(* --- small helpers --- *)

let flatten_longident lid =
  match Longident.flatten lid with
  | components -> components
  | exception _ -> []

(* The last one or two dotted components: the granularity every name
   table above uses, so [Utc_obs.Metrics.set_gauge], [Metrics.set_gauge]
   and a locally opened [set_gauge] all key the same way. *)
let suffix2 path =
  match List.rev (String.split_on_char '.' path) with
  | [] -> ""
  | [ x ] -> x
  | x :: m :: _ -> m ^ "." ^ x

let suffix1 path =
  match List.rev (String.split_on_char '.' path) with [] -> "" | x :: _ -> x

(* Qualified paths only match Module.name entries: [Metrics.incr] must
   not hit the bare [incr] (the Stdlib ref operator) — only an
   unqualified or explicitly [Stdlib.]-qualified use does. *)
let table_find table path =
  match List.assoc_opt (suffix2 path) table with
  | Some v -> Some v
  | None -> (
    match String.split_on_char '.' path with
    | [ _ ] | [ "Stdlib"; _ ] -> List.assoc_opt (suffix1 path) table
    | _ -> None)

let mem_suffix names path = List.mem (suffix2 path) names || List.mem (suffix1 path) names

let rec pattern_vars acc (p : pattern) =
  match p.ppat_desc with
  | Ppat_var v -> v.Asttypes.txt :: acc
  | Ppat_alias (inner, v) -> pattern_vars (v.Asttypes.txt :: acc) inner
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pattern_vars acc ps
  | Ppat_construct (_, Some (_, inner))
  | Ppat_variant (_, Some inner)
  | Ppat_constraint (inner, _)
  | Ppat_lazy inner
  | Ppat_open (_, inner)
  | Ppat_exception inner ->
    pattern_vars acc inner
  | Ppat_record (fields, _) -> List.fold_left (fun acc (_, p) -> pattern_vars acc p) acc fields
  | Ppat_or (a, b) -> pattern_vars (pattern_vars acc a) b
  | Ppat_any | Ppat_constant _ | Ppat_interval _ | Ppat_construct (_, None)
  | Ppat_variant (_, None)
  | Ppat_type _ | Ppat_unpack _ | Ppat_extension _ ->
    acc

(* --- per-binding walking state --- *)

type binding_class = B_param | B_fresh | B_call of string | B_derived

type acc = {
  mutable writes : write list;
  mutable io : (string * int) list;
  mutable guarded : bool;
  mutable atomic : bool;
  mutable calls : call list;
  mutable allocs : alloc list;
  mutable jobs : job list;
}

let new_acc () =
  { writes = []; io = []; guarded = false; atomic = false; calls = []; allocs = []; jobs = [] }

type ctx = {
  aliases : string SMap.t;  (** module alias -> expanded dotted prefix *)
  module_level : SSet.t;  (** top-level value names of the enclosing module *)
  module_name : string;
  acc : acc;
  mutable job : (int * call list ref * write list ref) option;
      (** active pool-job accumulator, when walking inside an [~f] closure *)
  hof_passed : SSet.t;  (** local fns handed by name to iterator HOFs *)
}

let expand_alias ctx components =
  match components with
  | head :: rest when SMap.mem head ctx.aliases -> SMap.find head ctx.aliases :: rest
  | _ -> components

let path_of ctx lid = String.concat "." (expand_alias ctx (flatten_longident lid))

let line_of_expr e = Ast_source.line_of e.pexp_loc

(* Root of an lvalue / argument expression under the variable env. *)
let rec root_of ctx env e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> (
    match SMap.find_opt x env with
    | Some B_param -> Param x
    | Some B_fresh -> Fresh
    | Some (B_call p) -> Call_result p
    | Some B_derived -> Derived x
    | None ->
      if SSet.mem x ctx.module_level then Global (ctx.module_name ^ "." ^ x) else Global x)
  | Pexp_ident { txt = lid; _ } -> Global (path_of ctx lid)
  | Pexp_field (inner, _) -> root_of ctx env inner
  | Pexp_constraint (inner, _) | Pexp_coerce (inner, _, _) | Pexp_open (_, inner) ->
    root_of ctx env inner
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, (_, arg) :: _)
    when List.mem (suffix2 (path_of ctx lid)) [ "Array.get"; "Bytes.get" ]
         || suffix1 (path_of ctx lid) = "!" ->
    root_of ctx env arg
  | _ -> Opaque

let rec target_name ctx env e =
  match e.pexp_desc with
  | Pexp_ident { txt = lid; _ } -> (
    match flatten_longident lid with [] -> "?" | components -> String.concat "." components)
  | Pexp_field (inner, f) ->
    let base = target_name ctx env inner in
    base ^ "." ^ String.concat "." (flatten_longident f.Asttypes.txt)
  | _ -> ignore env; "<expr>"

let bind_all env ~cls names = List.fold_left (fun env n -> SMap.add n cls env) env names

let class_of_freshness = function
  | Some [] -> B_fresh
  | Some [ p ] -> B_call p
  | Some _ | None -> B_derived

(* Syntactic freshness of an expression: [Some []] definitely fresh,
   [Some deps] fresh iff the named callees return fresh, [None] not. *)
let rec freshness ctx env e : freshness =
  match e.pexp_desc with
  | Pexp_record _ | Pexp_tuple _ | Pexp_array _ | Pexp_variant _ | Pexp_lazy _
  | Pexp_constant _ | Pexp_construct _ | Pexp_fun _ | Pexp_function _ ->
    Some []
  | Pexp_ident { txt = Longident.Lident x; _ } -> (
    match SMap.find_opt x env with
    | Some B_fresh -> Some []
    | Some (B_call p) -> Some [ p ]
    | _ -> None)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, _) ->
    let path = path_of ctx lid in
    if mem_suffix fresh_ctor_names path then Some [] else Some [ path ]
  | Pexp_let (_, bindings, body) -> freshness ctx (bind_let ctx env bindings) body
  | Pexp_sequence (_, body) | Pexp_open (_, body) -> freshness ctx env body
  | Pexp_constraint (inner, _) | Pexp_coerce (inner, _, _) -> freshness ctx env inner
  | Pexp_ifthenelse (_, a, Some b) -> combine [ freshness ctx env a; freshness ctx env b ]
  | Pexp_match (_, cases) | Pexp_try (_, cases) ->
    combine (List.map (fun c -> freshness ctx env c.pc_rhs) cases)
  | _ -> None

and combine branches =
  List.fold_left
    (fun acc b ->
      match (acc, b) with
      | None, _ | _, None -> None
      | Some a, Some b -> Some (a @ b))
    (Some []) branches

(* A single-name binding takes the freshness class of its right-hand
   side, so [let s = make () in ...; s] is as fresh as [make ()]; any
   other pattern binds its names as derived. *)
and bind_let ctx env bindings =
  List.fold_left
    (fun env vb ->
      match pattern_vars [] vb.pvb_pat with
      | [ name ] -> SMap.add name (class_of_freshness (freshness ctx env vb.pvb_expr)) env
      | many -> bind_all env ~cls:B_derived many)
    env bindings

(* Pre-scan: local function names passed by name to iterator HOFs (their
   bodies run per element, so they count as loop context). *)
let collect_hof_passed ctx expr =
  let found = ref SSet.empty in
  let iter_expr iterator e =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, args)
      when mem_suffix hof_names (path_of ctx lid)
           || mem_suffix pool_entry_names (path_of ctx lid) ->
      List.iter
        (fun (_, arg) ->
          match arg.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } -> found := SSet.add x !found
          | _ -> ())
        args
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.expr iterator e
  in
  let iterator = { Ast_iterator.default_iterator with Ast_iterator.expr = iter_expr } in
  iterator.Ast_iterator.expr iterator expr;
  !found

let record_write ctx env ~line ~what target_expr =
  let w =
    {
      w_line = line;
      w_target = target_name ctx env target_expr;
      w_what = what;
      w_root = root_of ctx env target_expr;
    }
  in
  ctx.acc.writes <- w :: ctx.acc.writes;
  match ctx.job with
  | Some (_, _, writes) -> writes := w :: !writes
  | None -> ()

let record_call ctx env ~line path args =
  let c = { c_path = path; c_line = line; c_args = List.map (fun (l, a) -> (l, root_of ctx env a)) args } in
  ctx.acc.calls <- c :: ctx.acc.calls;
  match ctx.job with
  | Some (_, calls, _) -> calls := c :: !calls
  | None -> ()

let record_alloc ctx ~line what = ctx.acc.allocs <- { a_line = line; a_what = what } :: ctx.acc.allocs

(* --- the walker --- *)

let rec walk ctx env ~in_loop e =
  let line = line_of_expr e in
  match e.pexp_desc with
  | Pexp_ident { txt = lid; _ } ->
    (* A bare mention still links the call graph: a function passed by
       name is as reachable as one applied directly. *)
    record_call ctx env ~line (path_of ctx lid) []
  | Pexp_constant _ | Pexp_unreachable | Pexp_extension _ | Pexp_new _ -> ()
  | Pexp_setfield (target, _, value) ->
    record_write ctx env ~line ~what:"<-" target;
    walk ctx env ~in_loop target;
    walk ctx env ~in_loop value
  | Pexp_setinstvar (_, value) -> walk ctx env ~in_loop value
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, args) ->
    walk_apply ctx env ~in_loop ~line (path_of ctx lid) args
  | Pexp_apply (head, args) ->
    walk ctx env ~in_loop head;
    List.iter (fun (_, a) -> walk ctx env ~in_loop a) args
  | Pexp_let (rec_flag, bindings, body) ->
    let env = walk_local_let ctx env ~in_loop rec_flag bindings in
    walk ctx env ~in_loop body
  | Pexp_fun (_, default, pat, body) ->
    if in_loop then record_alloc ctx ~line "closure";
    Option.iter (walk ctx env ~in_loop) default;
    let env = bind_all env ~cls:B_derived (pattern_vars [] pat) in
    walk ctx env ~in_loop body
  | Pexp_function cases ->
    if in_loop then record_alloc ctx ~line "closure";
    walk_cases ctx env ~in_loop cases
  | Pexp_match (scrutinee, cases) | Pexp_try (scrutinee, cases) ->
    walk ctx env ~in_loop scrutinee;
    walk_cases ctx env ~in_loop cases
  | Pexp_construct ({ txt = Longident.Lident "::"; _ }, arg) ->
    if in_loop then record_alloc ctx ~line "list cons";
    Option.iter (walk ctx env ~in_loop) arg
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> Option.iter (walk ctx env ~in_loop) arg
  | Pexp_record (fields, base) ->
    if in_loop then record_alloc ctx ~line "record literal";
    List.iter (fun (_, v) -> walk ctx env ~in_loop v) fields;
    Option.iter (walk ctx env ~in_loop) base
  | Pexp_array elements ->
    if in_loop then record_alloc ctx ~line "array literal";
    List.iter (walk ctx env ~in_loop) elements
  | Pexp_tuple elements -> List.iter (walk ctx env ~in_loop) elements
  | Pexp_field (inner, _) -> walk ctx env ~in_loop inner
  | Pexp_ifthenelse (cond, a, b) ->
    walk ctx env ~in_loop cond;
    walk ctx env ~in_loop a;
    Option.iter (walk ctx env ~in_loop) b
  | Pexp_sequence (a, b) ->
    walk ctx env ~in_loop a;
    walk ctx env ~in_loop b
  | Pexp_while (cond, body) ->
    walk ctx env ~in_loop cond;
    walk ctx env ~in_loop:true body
  | Pexp_for (pat, lo, hi, _, body) ->
    walk ctx env ~in_loop lo;
    walk ctx env ~in_loop hi;
    let env = bind_all env ~cls:B_derived (pattern_vars [] pat) in
    walk ctx env ~in_loop:true body
  | Pexp_constraint (inner, _) | Pexp_coerce (inner, _, _) | Pexp_newtype (_, inner)
  | Pexp_lazy inner | Pexp_assert inner | Pexp_poly (inner, _) | Pexp_open (_, inner)
  | Pexp_send (inner, _) ->
    walk ctx env ~in_loop inner
  | Pexp_letmodule (_, { pmod_desc = Pmod_ident _; _ }, body) ->
    (* Local module aliases are rare; names stay unexpanded. *)
    walk ctx env ~in_loop body
  | Pexp_letmodule (_, _, body) | Pexp_letexception (_, body) -> walk ctx env ~in_loop body
  | Pexp_letop { let_; ands; body } ->
    walk ctx env ~in_loop let_.pbop_exp;
    List.iter (fun a -> walk ctx env ~in_loop a.pbop_exp) ands;
    let env =
      List.fold_left
        (fun env b -> bind_all env ~cls:B_derived (pattern_vars [] b.pbop_pat))
        env (let_ :: ands)
    in
    walk ctx env ~in_loop body
  | Pexp_override fields -> List.iter (fun (_, v) -> walk ctx env ~in_loop v) fields
  | Pexp_object _ | Pexp_pack _ -> ()

and walk_cases ctx env ~in_loop cases =
  List.iter
    (fun c ->
      let env = bind_all env ~cls:B_derived (pattern_vars [] c.pc_lhs) in
      Option.iter (walk ctx env ~in_loop) c.pc_guard;
      walk ctx env ~in_loop c.pc_rhs)
    cases

and walk_local_let ctx env ~in_loop rec_flag bindings =
  let env_after = bind_let ctx env bindings in
  let env_body = if rec_flag = Asttypes.Recursive then env_after else env in
  List.iter
    (fun vb ->
      (* A local [let rec] body, or a local function handed by name to an
         iterator, runs per element: its body is loop context — but the
         closure literal itself is built once, when bound, so the outer
         fun chain is charged at the enclosing context, not per element. *)
      let is_fn =
        match vb.pvb_expr.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false
      in
      let iterated =
        is_fn
        && (rec_flag = Asttypes.Recursive
           || List.exists (fun n -> SSet.mem n ctx.hof_passed) (pattern_vars [] vb.pvb_pat))
      in
      if iterated && not in_loop then begin
        let rec into env e =
          match e.pexp_desc with
          | Pexp_fun (_, default, pat, body) ->
            Option.iter (walk ctx env ~in_loop:false) default;
            let env = bind_all env ~cls:B_derived (pattern_vars [] pat) in
            into env body
          | Pexp_function cases -> walk_cases ctx env ~in_loop:true cases
          | _ -> walk ctx env ~in_loop:true e
        in
        into env_body vb.pvb_expr
      end
      else walk ctx env_body ~in_loop:(in_loop || iterated) vb.pvb_expr)
    bindings;
  env_after

and walk_apply ctx env ~in_loop ~line path args =
  let sfx2 = suffix2 path and sfx1 = suffix1 path in
  (* Synchronization and IO markers. *)
  if sfx2 = "Mutex.lock" || sfx2 = "Mutex.protect" then ctx.acc.guarded <- true;
  (match String.split_on_char '.' path with
  | head :: _ :: _ when head = "Atomic" -> ctx.acc.atomic <- true
  | _ -> ());
  let unqualified =
    match String.split_on_char '.' path with [ _ ] | [ "Stdlib"; _ ] -> true | _ -> false
  in
  if
    List.mem sfx2 io_names
    || (unqualified && List.mem sfx1 io_names)
    || (match String.split_on_char '.' path with
       | head :: _ :: _ -> List.mem head io_module_heads
       | _ -> false)
  then ctx.acc.io <- (path, line) :: ctx.acc.io;
  (* Mutating stdlib calls. *)
  (match table_find mutator_table path with
  | Some indices ->
    let positional = List.filter_map (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None) args in
    List.iter
      (fun i ->
        match List.nth_opt positional i with
        | Some target -> record_write ctx env ~line ~what:(suffix2 path) target
        | None -> ())
      indices
  | None -> ());
  (* Operator allocation shapes. *)
  if in_loop && (sfx1 = "@" || sfx2 = "List.append" || sfx2 = "List.concat" || sfx2 = "List.rev"
                || sfx2 = "List.rev_append")
  then record_alloc ctx ~line ("list append (" ^ sfx1 ^ ")");
  if in_loop && (sfx1 = "^" || sfx2 = "String.concat") then
    record_alloc ctx ~line "string concat (^)";
  if in_loop && List.mem sfx2 serialisers then record_alloc ctx ~line ("serialisation (" ^ sfx2 ^ ")");
  (* The call itself. *)
  record_call ctx env ~line path args;
  (* Pool job closures: walk with the job accumulator active. *)
  let is_pool_entry = List.mem sfx2 pool_entry_names in
  let is_hof = List.mem sfx2 hof_names || List.mem sfx1 hof_names in
  List.iter
    (fun (label, arg) ->
      let job_arg = is_pool_entry && label = Asttypes.Labelled "f" in
      let closure =
        match arg.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false
      in
      if job_arg then begin
        let calls = ref [] and writes = ref [] in
        let saved = ctx.job in
        ctx.job <- Some (line, calls, writes);
        (match arg.pexp_desc with
        | Pexp_ident { txt = lid; _ } -> record_call ctx env ~line (path_of ctx lid) []
        | _ -> walk ctx env ~in_loop:(in_loop || closure) arg);
        ctx.job <- saved;
        ctx.acc.jobs <-
          { j_line = line; j_calls = List.rev !calls; j_writes = List.rev !writes }
          :: ctx.acc.jobs
      end
      else if is_hof && closure then
        (* The closure literal itself is built once per call; its body
           runs per element. *)
        walk_hof_closure ctx env ~in_loop arg
      else walk ctx env ~in_loop arg)
    args

and walk_hof_closure ctx env ~in_loop e =
  match e.pexp_desc with
  | Pexp_fun (_, default, pat, body) ->
    if in_loop then record_alloc ctx ~line:(line_of_expr e) "closure";
    Option.iter (walk ctx env ~in_loop) default;
    let env = bind_all env ~cls:B_derived (pattern_vars [] pat) in
    walk_hof_closure ctx env ~in_loop body
  | Pexp_function cases ->
    if in_loop then record_alloc ctx ~line:(line_of_expr e) "closure";
    List.iter
      (fun c ->
        let env = bind_all env ~cls:B_derived (pattern_vars [] c.pc_lhs) in
        Option.iter (walk ctx env ~in_loop:true) c.pc_guard;
        walk ctx env ~in_loop:true c.pc_rhs)
      cases
  | _ -> walk ctx env ~in_loop:true e

(* --- top-level binding summaries --- *)

(* Strip the outermost fun chain: parameter list + inner body. *)
let rec strip_params acc e =
  match e.pexp_desc with
  | Pexp_fun (label, _, pat, body) ->
    let name = match pattern_vars [] pat with [ n ] -> n | _ -> "_" in
    strip_params ((label, name) :: acc) body
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> strip_params acc body
  | _ -> (List.rev acc, e)

let is_self_recursive name expr =
  let found = ref false in
  let iter_expr iterator e =
    (match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } when x = name -> found := true
    | _ -> ());
    Ast_iterator.default_iterator.Ast_iterator.expr iterator e
  in
  let iterator = { Ast_iterator.default_iterator with Ast_iterator.expr = iter_expr } in
  iterator.Ast_iterator.expr iterator expr;
  !found

let summarize_binding ~file ~module_name ~module_level ~aliases ~hotpath_lines rec_flag vb =
  match pattern_vars [] vb.pvb_pat with
  | [] | _ :: _ :: _ -> []  (* destructuring top-level lets carry no name to link *)
  | [ name ] ->
    let line = Ast_source.line_of vb.pvb_loc in
    let ctx =
      {
        aliases;
        module_level;
        module_name;
        acc = new_acc ();
        job = None;
        hof_passed = SSet.empty;
      }
    in
    let ctx = { ctx with hof_passed = collect_hof_passed ctx vb.pvb_expr } in
    let params, body = strip_params [] vb.pvb_expr in
    let env =
      List.fold_left (fun env (_, n) -> SMap.add n B_param env) SMap.empty params
    in
    let self_rec = rec_flag = Asttypes.Recursive && is_self_recursive name body in
    walk ctx env ~in_loop:self_rec body;
    let hotpath = List.exists (fun c -> c <= line) hotpath_lines
                  && (match List.filter (fun c -> c <= line) hotpath_lines with
                     | [] -> false
                     | cs -> List.exists (fun c -> line - c <= 3) cs)
    in
    [
      {
        s_file = file;
        s_module = module_name;
        s_name = name;
        s_line = line;
        s_params = params;
        s_writes = List.rev ctx.acc.writes;
        s_io = List.rev ctx.acc.io;
        s_guarded = ctx.acc.guarded;
        s_uses_atomic = ctx.acc.atomic;
        s_calls = List.rev ctx.acc.calls;
        s_allocs = List.rev ctx.acc.allocs;
        s_pool_jobs = List.rev ctx.acc.jobs;
        s_hotpath = hotpath;
        s_constructs = freshness ctx SMap.empty body;
      };
    ]

let rec summarize_structure ~file ~module_name ~hotpath_lines structure =
  (* First pass: module-level value names and module aliases. *)
  let module_level =
    List.fold_left
      (fun acc item ->
        match item.pstr_desc with
        | Pstr_value (_, bindings) ->
          List.fold_left
            (fun acc vb -> List.fold_left (fun acc n -> SSet.add n acc) acc (pattern_vars [] vb.pvb_pat))
            acc bindings
        | _ -> acc)
      SSet.empty structure
  in
  let aliases =
    List.fold_left
      (fun acc item ->
        match item.pstr_desc with
        | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr = { pmod_desc = Pmod_ident lid; _ }; _ } ->
          SMap.add name (String.concat "." (flatten_longident lid.Asttypes.txt)) acc
        | _ -> acc)
      SMap.empty structure
  in
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (rec_flag, bindings) ->
        List.concat_map
          (summarize_binding ~file ~module_name ~module_level ~aliases ~hotpath_lines rec_flag)
          bindings
      | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } ->
        summarize_module_expr ~file ~module_name:sub ~hotpath_lines pmb_expr
      | Pstr_recmodule mbs ->
        List.concat_map
          (fun mb ->
            match mb.pmb_name.Asttypes.txt with
            | Some sub -> summarize_module_expr ~file ~module_name:sub ~hotpath_lines mb.pmb_expr
            | None -> [])
          mbs
      | _ -> [])
    structure

and summarize_module_expr ~file ~module_name ~hotpath_lines me =
  match me.pmod_desc with
  | Pmod_structure structure -> summarize_structure ~file ~module_name ~hotpath_lines structure
  | Pmod_functor (_, body) -> summarize_module_expr ~file ~module_name ~hotpath_lines body
  | Pmod_constraint (inner, _) -> summarize_module_expr ~file ~module_name ~hotpath_lines inner
  | _ -> []

let hotpath_comment_lines (source : Source.t) =
  List.filter_map
    (fun (c : Source.comment) ->
      let text = String.trim c.Source.text in
      let tag = "lint:hotpath" in
      if String.length text >= String.length tag && String.sub text 0 (String.length tag) = tag
      then Some c.Source.comment_line
      else None)
    source.Source.comments

let summarize (ast : Ast_source.t) =
  summarize_structure ~file:ast.Ast_source.source.Source.path
    ~module_name:ast.Ast_source.module_name
    ~hotpath_lines:(hotpath_comment_lines ast.Ast_source.source)
    ast.Ast_source.structure
