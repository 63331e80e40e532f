(* Tests for the determinism linter (tools/lint): scanner blanking, each
   rule on positive/negative fixtures, allowlist and inline suppressions,
   and the event-queue invariant the compare/hash rules exist to protect. *)

module L = Utc_lint
open Utc_sim

let run ?(allowlist = L.Allowlist.empty) files =
  L.Engine.run_sources ~allowlist
    (List.map (fun (path, contents) -> L.Source.of_string ~path contents) files)

let rules_of diags = List.map (fun (d : L.Diagnostic.t) -> d.L.Diagnostic.rule) diags

let check_rules name expected ?allowlist files =
  Alcotest.(check (list string)) name expected (rules_of (run ?allowlist files))

(* --- scanner: comments, strings and char literals are invisible --- *)

let scanner_blanks_noncode () =
  check_rules "comment and string occurrences don't count" []
    [
      ( "bin/x.ml",
        "let x = \"Random.int says Unix.gettimeofday\"\n\
         (* Random.self_init (); Stdlib.compare *)\n\
         let quote = '\"'\n\
         let y = \"escaped \\\" Random.int\"\n" );
    ];
  check_rules "nested comments stay comments" []
    [ ("bin/x.ml", "(* outer (* Random.int 3 *) still comment *)\nlet x = 1\n") ];
  check_rules "code after a string is still scanned" [ "R1" ]
    [ ("bin/x.ml", "let x = \"decoy\" ^ string_of_int (Random.int 3)\n") ]

let scanner_quoted_string () =
  check_rules "quoted {|...|} strings are blanked" []
    [ ("bin/x.ml", "let x = {|Random.int|} ^ {q|Unix.gettimeofday|q}\n") ]

(* --- R1 no-ambient-randomness --- *)

let r1_detects () =
  check_rules "bare Random module use" [ "R1" ] [ ("bin/x.ml", "let x = Random.int 3\n") ];
  check_rules "Stdlib-qualified" [ "R1" ] [ ("bin/x.ml", "let () = Stdlib.Random.self_init ()\n") ];
  check_rules "identifier containing Random is fine" []
    [ ("bin/x.ml", "let pseudo_Random = 1\nlet r = My_random.draw\n") ];
  check_rules "our Rng is fine" [] [ ("bin/x.ml", "let x = Utc_sim.Rng.float rng\n") ]

let r1_allowlist () =
  let files = [ ("lib/sim/rng.ml", "let x = Random.bits ()\n"); ("lib/sim/rng.mli", "") ] in
  check_rules "rng.ml flagged without allowlist" [ "R1" ] files;
  check_rules "rng.ml allowlisted" [] ~allowlist:(L.Allowlist.of_string "R1 lib/sim/rng.ml\n")
    files

(* --- R2 no-wall-clock --- *)

let r2_detects () =
  let body = "let t = Unix.gettimeofday ()\nlet u = Sys.time ()\nlet v = Unix.time ()\n" in
  check_rules "three wall-clock reads in lib/" [ "R2"; "R2"; "R2" ]
    [ ("lib/model/clock.ml", body); ("lib/model/clock.mli", "") ];
  check_rules "bench may read the wall clock" [] [ ("bench/x.ml", body) ];
  check_rules "Unix.timeofday-like identifiers unaffected" []
    [ ("lib/model/clock.ml", "let t = Unix.timer ()\n"); ("lib/model/clock.mli", "") ]

let r2_wallclock_shim_allowed () =
  let files =
    [ ("lib/sim/wallclock.ml", "let now () = Unix.gettimeofday ()\n"); ("lib/sim/wallclock.mli", "") ]
  in
  check_rules "shim flagged without allowlist" [ "R2" ] files;
  check_rules "shim allowlisted" []
    ~allowlist:(L.Allowlist.of_string "R2 lib/sim/wallclock.ml\n")
    files

(* --- R3 no-polymorphic-compare --- *)

let r3_detects () =
  check_rules "List.sort compare" [ "R3" ] [ ("bin/x.ml", "let xs = List.sort compare xs\n") ];
  check_rules "across a line break" [ "R3" ]
    [ ("bin/x.ml", "let xs =\n  List.sort\n    compare xs\n") ];
  check_rules "Array.stable_sort compare" [ "R3" ]
    [ ("bin/x.ml", "let () = Array.stable_sort compare a\n") ];
  check_rules "Stdlib.compare anywhere" [ "R3" ]
    [ ("bin/x.ml", "let c = Stdlib.compare a b\n") ];
  check_rules "structural = [] in an if condition" [ "R3" ]
    [ ("bin/x.ml", "let f xs = if xs = [] then 0 else 1\n") ];
  check_rules "structural <> [] before a connective" [ "R3" ]
    [ ("bin/x.ml", "let g xs ok = xs <> [] && ok\n") ];
  check_rules "structural = [] before ||" [ "R3" ]
    [ ("bin/x.ml", "let h xs ok = xs = []\n  || ok\n") ];
  let lib_file code = [ ("lib/net/x.ml", code); ("lib/net/x.mli", "") ] in
  check_rules "List.assoc" [ "R3" ] (lib_file "let v = List.assoc flow table\n");
  check_rules "List.assoc_opt" [ "R3" ] (lib_file "let v = List.assoc_opt flow table\n");
  check_rules "List.mem_assoc is one finding" [ "R3" ]
    (lib_file "let b = List.mem_assoc flow table\n");
  check_rules "List.remove_assoc" [ "R3" ] (lib_file "let t = List.remove_assoc flow table\n");
  check_rules "List.mem" [ "R3" ] (lib_file "let b = List.mem flow flows\n")

let r3_negatives () =
  check_rules "explicit comparator" []
    [ ("bin/x.ml", "let xs = List.sort Float.compare xs\nlet ys = List.sort Timebase.compare ys\n") ];
  check_rules "custom function mentioning compare" []
    [ ("bin/x.ml", "let xs = List.sort compare_names xs\n") ];
  check_rules "lambda comparator" []
    [ ("bin/x.ml", "let xs = List.sort (fun (a, _) (b, _) -> String.compare a b) xs\n") ];
  check_rules "empty-list binding is not a condition" []
    [ ("bin/x.ml", "let xs = []\nlet f () = xs\n") ];
  check_rules "match pattern [] is fine" []
    [ ("bin/x.ml", "let f = function [] -> 0 | _ :: _ -> 1\n") ];
  check_rules "composed operators are not bare equality" []
    [ ("bin/x.ml", "let f r ok = r := []; !r >= [] && ok\n") ];
  let lib_file code = [ ("lib/net/x.ml", code); ("lib/net/x.mli", "") ] in
  check_rules "physical-equality lookups" []
    (lib_file "let v = List.assq key table\nlet b = List.memq key keys\n");
  check_rules "lookup with an explicit equality" []
    (lib_file "let v = List.find_opt (fun (f, _) -> Flow.equal f flow) table\n");
  check_rules "list lookups outside lib/" []
    [ ("bench/x.ml", "let f = List.assoc name reports\nlet b = List.mem name names\n") ]

(* --- R4 no-hash-order-dependence --- *)

let r4_detects () =
  check_rules "iter with no sort in window" [ "R4" ]
    [ ("bin/x.ml", "let () = Hashtbl.iter emit tbl\n") ];
  check_rules "fold feeding sorted output passes" []
    [ ("bin/x.ml", "let xs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\nlet xs = List.sort cmp xs\n") ];
  check_rules "Hashtbl.hash tie-break" [ "R4" ]
    [ ("bin/x.ml", "let tie = Hashtbl.hash pkt\n") ]

let r4_suppression () =
  check_rules "trailing same-line suppression" []
    [ ("bin/x.ml", "let () = Hashtbl.iter consider tbl (* lint:allow R4 -- min of unique keys *)\n") ];
  check_rules "suppression on the preceding line" []
    [ ("bin/x.ml", "(* lint:allow R4 -- order-independent reduction *)\nlet () = Hashtbl.iter consider tbl\n") ];
  check_rules "suppressing R4 does not hide other rules" [ "R1" ]
    [ ("bin/x.ml", "(* lint:allow R4 *)\nlet () = Hashtbl.iter f tbl; Random.self_init ()\n") ];
  check_rules "stale suppression two lines up has no effect" [ "R4" ]
    [ ("bin/x.ml", "(* lint:allow R4 *)\nlet a = 1\nlet () = Hashtbl.iter f tbl\n") ]

(* --- R5 mli-coverage --- *)

let r5_detects () =
  check_rules "lib module without interface" [ "R5" ] [ ("lib/net/orphan.ml", "let x = 1\n") ];
  check_rules "interface present" []
    [
      ("lib/net/ok.ml", "let x = 1\n"); ("lib/net/ok.mli", "val x : int\n");
      ("bin/main.ml", "let () = ignore Ok.x\n");
    ];
  check_rules "bin and examples are exempt" []
    [ ("bin/tool.ml", "let x = 1\n"); ("examples/demo.ml", "let x = 1\n") ]

(* --- R6 no-stdout-in-lib --- *)

let r6_detects () =
  check_rules "print_endline in lib" [ "R6" ]
    [ ("lib/stats/noisy.ml", "let () = print_endline \"hi\"\n"); ("lib/stats/noisy.mli", "") ];
  check_rules "Format.printf in lib" [ "R6" ]
    [ ("lib/stats/noisy.ml", "let () = Format.printf \"%d\" 1\n"); ("lib/stats/noisy.mli", "") ];
  check_rules "formatter-passing pp functions are fine" []
    [ ("lib/stats/quiet.ml", "let pp ppf = Format.pp_print_string ppf \"ok\"\n"); ("lib/stats/quiet.mli", "") ];
  check_rules "binaries may print" [] [ ("bin/x.ml", "let () = print_endline \"hi\"\n") ];
  check_rules "ascii_plot allowlisted" []
    ~allowlist:(L.Allowlist.of_string "R6 lib/stats/ascii_plot.ml\n")
    [ ("lib/stats/ascii_plot.ml", "let () = print_endline \"plot\"\n"); ("lib/stats/ascii_plot.mli", "") ]

(* --- R8 no-raw-output --- *)

let r8_detects () =
  check_rules "printf in lib outside the presentation layers trips R6 and R8" [ "R6"; "R8" ]
    [ ("lib/experiments/chatty.ml", "let () = Printf.printf \"%d\" 1\n");
      ("lib/experiments/chatty.mli", "") ];
  check_rules "process-global Logs configuration in lib" [ "R8"; "R8" ]
    [ ("lib/core/logging.ml", "let () = Logs.set_reporter r\nlet () = Logs.set_level None\n");
      ("lib/core/logging.mli", "") ];
  check_rules "using the Logs API without configuring it is fine" []
    [ ("lib/core/quiet.ml", "let warn () = Logs.warn (fun m -> m \"x\")\n");
      ("lib/core/quiet.mli", "") ];
  check_rules "bin and bench may print and configure Logs" []
    [ ("bin/x.ml", "let () = Logs.set_reporter r\nlet () = print_endline \"hi\"\n");
      ("bench/y.ml", "let () = Logs.set_level None\nlet () = Format.printf \"%d\" 1\n") ];
  check_rules "lib/obs is exempt from R8 (R6 still applies in lib/)" [ "R6" ]
    [ ("lib/obs/dbg.ml", "let () = print_endline \"hi\"\n"); ("lib/obs/dbg.mli", "") ]

let r8_examples_allowlist () =
  let files = [ ("examples/demo.ml", "let () = print_endline \"demo\"\n") ] in
  check_rules "examples flagged without allowlist" [ "R8" ] files;
  check_rules "examples subtree allowlisted" []
    ~allowlist:(L.Allowlist.of_string "R8 examples/\n")
    files

(* --- R7 no-bare-domains --- *)

let r7_detects () =
  check_rules "Domain.self outside lib/parallel" [ "R7" ]
    [ ("bin/x.ml", "let id = Domain.self ()\n") ];
  check_rules "Domain.spawn in lib" [ "R7" ]
    [ ("lib/core/fanout.ml", "let d = Domain.spawn work\n"); ("lib/core/fanout.mli", "") ];
  check_rules "Domain.DLS keyed state" [ "R7" ]
    [ ("bench/x.ml", "let k = Domain.DLS.new_key (fun () -> 0)\n") ];
  check_rules "lib/parallel is the sanctioned home" []
    [ ("lib/parallel/pool.ml", "let d = Domain.spawn work\nlet n = Domain.recommended_domain_count ()\n");
      ("lib/parallel/pool.mli", "") ];
  check_rules "identifier containing Domain is fine" []
    [ ("bin/x.ml", "let broadcast_Domain = 1\nlet d = My_domain.name\n") ];
  check_rules "pool consumers are fine" []
    [ ("bin/x.ml", "let xs = Utc_parallel.Pool.map_list pool ~f xs\n") ]

(* --- allowlist semantics --- *)

let allowlist_semantics () =
  let files = [ ("lib/experiments/h.ml", "let t = Sys.time ()\n"); ("lib/experiments/h.mli", "") ] in
  check_rules "directory-prefix entry" []
    ~allowlist:(L.Allowlist.of_string "R2 lib/experiments/\n")
    files;
  check_rules "prefix entry for another rule does not leak" [ "R2" ]
    ~allowlist:(L.Allowlist.of_string "R6 lib/experiments/\n")
    files;
  check_rules "star rule allows everything" []
    ~allowlist:(L.Allowlist.of_string "* lib/experiments/h.ml\n")
    files;
  Alcotest.(check int) "comments and blanks ignored" 2
    (L.Allowlist.size (L.Allowlist.of_string "# header\n\nR1 a.ml\nR2 b.ml # trailing\n"));
  Alcotest.check_raises "malformed entry rejected"
    (Failure "allowlist: line 1: expected '<rule> <path>'") (fun () ->
      ignore (L.Allowlist.of_string "R1only\n"))

(* --- diagnostics --- *)

let diagnostic_format () =
  let d = L.Diagnostic.make ~path:"lib/a.ml" ~line:3 ~rule:"R2" ~message:"no wall clock" in
  Alcotest.(check string) "file:line: rule message" "lib/a.ml:3: R2 no wall clock"
    (L.Diagnostic.to_string d);
  match run [ ("lib/z.ml", "let t = Sys.time ()\nlet u = Sys.time ()\n"); ("lib/z.mli", "") ] with
  | [ a; b ] ->
    Alcotest.(check int) "line of first" 1 a.L.Diagnostic.line;
    Alcotest.(check int) "line of second" 2 b.L.Diagnostic.line
  | ds -> Alcotest.failf "expected 2 diagnostics, got %d" (List.length ds)

(* --- the invariant R3/R4 protect: deterministic event ordering --- *)

(* Equal-time events with distinct priority classes must pop in priority
   order no matter the order they were inserted in: scheduling order may
   never depend on hash order, structural compare, or insertion history. *)
let pheap_permutation_prop =
  QCheck.Test.make
    ~name:"pheap pop order of equal-time events is insertion-order invariant" ~count:300
    QCheck.(list small_int)
    (fun raw ->
      let prios =
        List.fold_left (fun acc p -> if List.mem p acc then acc else p :: acc) [] raw
      in
      let h = Pheap.create () in
      List.iter (fun p -> Pheap.add ~prio:p h ~time:1.0 p) prios;
      let rec drain acc =
        match Pheap.pop h with Some (_, p) -> drain (p :: acc) | None -> List.rev acc
      in
      drain [] = List.sort Int.compare prios)

(* --- R9 no-unsynchronized-shared-mutation (static race detector) --- *)

(* The pre-PR-6 Metrics shape: registration is mutex-guarded, value
   mutation is not. A pool job resolving a handle and writing through it
   is exactly the gauge race fixed in lib/obs/metrics.ml — deleting that
   fix reproduces this diagnostic. *)
let met_unguarded =
  "let lock = Mutex.create ()\n\
   let gauges : (string, float ref) Hashtbl.t = Hashtbl.create 8\n\
   let gauge name =\n\
  \  Mutex.lock lock;\n\
  \  let g =\n\
  \    match Hashtbl.find_opt gauges name with\n\
  \    | Some g -> g\n\
  \    | None ->\n\
  \      let g = ref 0.0 in\n\
  \      Hashtbl.replace gauges name g;\n\
  \      g\n\
  \  in\n\
  \  Mutex.unlock lock;\n\
  \  g\n\
   let set g v = g := v\n"

let met_guarded =
  met_unguarded ^ "let set_safe g v = Mutex.lock lock; g := v; Mutex.unlock lock\n"

let met_user set_fn =
  Printf.sprintf
    "let run pool xs =\n\
    \  let g = Met.gauge \"depth\" in\n\
    \  Utc_parallel.Pool.map_list pool ~f:(fun x -> Met.%s g (float_of_int x)) xs\n"
    set_fn

let r9_registry_handle () =
  check_rules "pool job writes a registry handle through an unguarded setter" [ "R9" ]
    [
      ("lib/obs/met.ml", met_unguarded); ("lib/obs/met.mli", "");
      ("lib/exp/run.ml", met_user "set"); ("lib/exp/run.mli", "");
    ];
  check_rules "mutex-guarded setter passes" []
    [
      ("lib/obs/met.ml", met_guarded); ("lib/obs/met.mli", "");
      ("lib/exp/run.ml", met_user "set_safe"); ("lib/exp/run.mli", "");
    ]

let r9_atomic_vs_plain () =
  (* The lib/parallel shape: an Atomic counter is safe; degrading it to a
     plain ref (deleting the Atomic) reproduces the diagnostic. *)
  let user = "let go pool xs = Utc_parallel.Pool.map_list pool ~f:(fun _ -> Acc.bump ()) xs\n" in
  check_rules "Atomic counter bumped from a pool job" []
    [
      ("lib/parallel/acc.ml", "let hits = Atomic.make 0\nlet bump () = Atomic.incr hits\n");
      ("lib/parallel/acc.mli", "");
      ("bin/go.ml", user);
    ];
  check_rules "plain ref counter bumped from a pool job" [ "R9" ]
    [
      ("lib/parallel/acc.ml", "let hits = ref 0\nlet bump () = incr hits\n");
      ("lib/parallel/acc.mli", "");
      ("bin/go.ml", user);
    ]

let r9_direct_and_local () =
  check_rules "job closure writes a module-level ref directly" [ "R9" ]
    [
      ( "bin/j.ml",
        "let total = ref 0.0\n\
         let run pool xs = Utc_parallel.Pool.map_list pool ~f:(fun x -> total := x) xs\n" );
    ];
  check_rules "job-local fresh state is fine" []
    [
      ( "bin/j.ml",
        "let run pool xs =\n\
        \  Utc_parallel.Pool.map_list pool\n\
        \    ~f:(fun x ->\n\
        \      let h = Hashtbl.create 4 in\n\
        \      Hashtbl.replace h x x;\n\
        \      Hashtbl.length h)\n\
        \    xs\n" );
    ]

(* A wrapper that builds a value, wires it and returns it from a [let]
   hands its caller a fresh value; one that returns a let-bound global
   does not. *)
let r9_let_bound_results () =
  let box = ("lib/exp/box.ml", "let create () = { v = 0 }\nlet bump b = b.v <- b.v + 1\n") in
  let job =
    ( "bin/j.ml",
      "let run pool xs =\n\
      \  Utc_parallel.Pool.map_list pool ~f:(fun _ -> let b = Wrap.make () in Box.bump b) xs\n" )
  in
  check_rules "pool job mutates a wrapper's let-bound fresh result" []
    [
      box; ("lib/exp/box.mli", "");
      ( "lib/exp/wrap.ml",
        "let make () =\n\
        \  let b = Box.create () in\n\
        \  Box.bump b;\n\
        \  b\n" );
      ("lib/exp/wrap.mli", "");
      job;
    ];
  check_rules "pool job mutates a wrapper's let-bound global" [ "R9" ]
    [
      box; ("lib/exp/box.mli", "");
      ( "lib/exp/wrap.ml",
        "let shared = Box.create ()\n\
         let make () =\n\
        \  let b = shared in\n\
        \  b\n" );
      ("lib/exp/wrap.mli", "");
      job;
    ]

let r9_suppression () =
  let racy =
    "let total = ref 0.0\n\
     let run pool xs = Utc_parallel.Pool.map_list pool ~f:(fun x -> total := x) xs (* lint:allow R9 -- test: summed after join *)\n"
  in
  check_rules "inline suppression silences the job finding" [] [ ("bin/j.ml", racy) ];
  let unsuppressed =
    "let total = ref 0.0\n\
     let run pool xs = Utc_parallel.Pool.map_list pool ~f:(fun x -> total := x) xs\n"
  in
  check_rules "allowlist subtree entry applies to R9" []
    ~allowlist:(L.Allowlist.of_string "R9 bin/\n")
    [ ("bin/j.ml", unsuppressed) ]

(* --- R10 pure-inference --- *)

let r10_detects () =
  check_rules "direct IO in lib/inference" [ "R10" ]
    [ ("lib/inference/bel.ml", "let dump x = output_string stdout (string_of_int x)\n");
      ("lib/inference/bel.mli", "") ];
  check_rules "global mutation in lib/model" [ "R10" ]
    [ ("lib/model/m.ml", "let total = ref 0\nlet bump n = total := !total + n\n");
      ("lib/model/m.mli", "") ];
  check_rules "IO reached transitively through another layer" [ "R10" ]
    [
      ("lib/inference/bel.ml", "let report x = Dump.emit x\n"); ("lib/inference/bel.mli", "");
      ("lib/stats/dump.ml", "let emit x = output_string stdout x\n"); ("lib/stats/dump.mli", "");
    ]

let r10_negatives () =
  check_rules "local mutation is pure enough" []
    [
      ( "lib/utility/u.ml",
        "let sum xs =\n\
        \  let acc = ref 0 in\n\
        \  List.iter (fun x -> acc := !acc + x) xs;\n\
        \  !acc\n" );
      ("lib/utility/u.mli", "");
    ];
  check_rules "mutex-guarded telemetry is sanctioned" []
    [
      ("lib/obs/met.ml", met_guarded); ("lib/obs/met.mli", "");
      ( "lib/inference/bel.ml",
        "let observe v =\n  let g = Met.gauge \"belief\" in\n  Met.set_safe g v\n" );
      ("lib/inference/bel.mli", "");
    ];
  check_rules "the same code outside the protected layers is not R10's business" []
    [ ("lib/stats/s.ml", "let total = ref 0\nlet bump n = total := !total + n\n");
      ("lib/stats/s.mli", "") ]

(* --- R11 hotpath-alloc --- *)

let r11_detects () =
  check_rules "self-recursive hotpath consing" [ "R11" ]
    [ ("bin/hp.ml",
       "(* lint:hotpath *)\nlet rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc)\n") ];
  check_rules "string concat in a for loop" [ "R11" ]
    [ ("bin/hp.ml",
       "(* lint:hotpath *)\n\
        let f () =\n\
        \  for i = 0 to 9 do\n\
        \    ignore (string_of_int i ^ \"x\")\n\
        \  done\n") ];
  check_rules "list cell built per element of an iterator" [ "R11" ]
    [ ("bin/hp.ml",
       "(* lint:hotpath *)\nlet f xs = List.map (fun x -> [ x ]) xs\n") ];
  check_rules "serialisation per element of an iterator" [ "R11" ]
    [ ("bin/hp.ml",
       "(* lint:hotpath *)\nlet keys xs = List.map (fun x -> Marshal.to_string x []) xs\n") ]

let r11_negatives () =
  check_rules "unannotated functions may allocate" []
    [ ("bin/hp.ml", "let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc)\n") ];
  check_rules "swap-only loops are clean" []
    [ ("bin/hp.ml",
       "(* lint:hotpath *)\n\
        let bubble a =\n\
        \  for i = 0 to Array.length a - 2 do\n\
        \    if a.(i) > a.(i + 1) then begin\n\
        \      let t = a.(i) in\n\
        \      a.(i) <- a.(i + 1);\n\
        \      a.(i + 1) <- t\n\
        \    end\n\
        \  done\n") ];
  check_rules "allocation outside the loop is fine" []
    [ ("bin/hp.ml",
       "(* lint:hotpath *)\n\
        let f n =\n\
        \  let buf = Array.make n 0 in\n\
        \  for i = 0 to n - 1 do\n\
        \    buf.(i) <- i * i\n\
        \  done;\n\
        \  buf\n" ) ];
  check_rules "serialisation outside the loop is fine" []
    [ ("bin/hp.ml",
       "(* lint:hotpath *)\n\
        let f x n =\n\
        \  let key = Marshal.to_string x [] in\n\
        \  for _ = 1 to n do\n\
        \    ignore (String.length key)\n\
        \  done\n" ) ]

let r11_justification () =
  check_rules "an inline justification keeps the inventory clean" []
    [ ("bin/hp.ml",
       "(* lint:hotpath *)\n\
        let rec build n acc =\n\
        \  if n = 0 then acc\n\
        \  else build (n - 1) (n :: acc) (* lint:allow R11 -- test: bounded by n *)\n") ]

(* --- R12 no-swallowed-exceptions --- *)

let r12_detects () =
  check_rules "wildcard catch" [ "R12" ]
    [ ("bin/t.ml", "let guard f = try f () with _ -> 0\n") ];
  check_rules "wildcard among specific cases" [ "R12" ]
    [ ("bin/t.ml", "let guard f = try f () with Not_found -> 1 | _ -> 0\n") ];
  check_rules "specific exceptions are fine" []
    [ ("bin/t.ml", "let guard f = try f () with Not_found -> 0 | Failure _ -> 1\n") ];
  check_rules "binding the exception is fine" []
    [ ("bin/t.ml", "let guard f = try f () with e -> raise e\n") ];
  check_rules "inline suppression" []
    [ ("bin/t.ml", "let guard f = try f () with _ -> 0 (* lint:allow R12 -- test: default *)\n") ]

(* --- R13 exported-value-has-reader --- *)

(* [Lonely] exports [x], [twice] and a record with a [mean] field beside
   a [mean] function; its own [twice] reads [x]. *)
let lonely
    ?(mli = "val x : int\nval twice : int\ntype r = { mean : float }\nval mean : r -> float\n")
    readers =
  ( "lib/net/lonely.ml",
    "let x = 1\nlet twice = x + x\ntype r = { mean : float }\nlet mean r = r.mean\n" )
  :: ("lib/net/lonely.mli", mli)
  :: readers

(* Every export but [x] read from bin/, so a case shows whether [x]'s
   reader counts. *)
let others = ("bin/others.ml", "let t = Lonely.twice\nlet m = Lonely.mean\n")

let r13_detects () =
  (* [Lonely.twice] reads [x], but from [x]'s own module. *)
  (match run (lonely [ others ]) with
  | [ d ] ->
    Alcotest.(check (pair string int)) "on the val's line" ("lib/net/lonely.mli", 1)
      (d.L.Diagnostic.path, d.L.Diagnostic.line);
    Alcotest.(check string) "rule" "R13" d.L.Diagnostic.rule
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds));
  check_rules "every export unread" [ "R13"; "R13"; "R13" ] (lonely [])

let r13_readers () =
  let reads name code = check_rules name [] (lonely [ others; ("bin/use.ml", code) ]) in
  reads "a reader in bin/" "let y = Lonely.x\n";
  check_rules "a reader in examples/" []
    (lonely [ others; ("examples/demo.ml", "let y = Utc_net.Lonely.x\n") ]);
  check_rules "a reader elsewhere in lib/" []
    (lonely [ others; ("lib/core/user.ml", "let y = Lonely.x\n"); ("lib/core/user.mli", "") ]);
  reads "a local open" "let y = Lonely.(x + 1)\n";
  reads "a let-open" "let y = let open Lonely in x\n";
  reads "a let () body" "let () = ignore (Lonely.x + 1)\n";
  reads "an optional-argument default" "let f ?(n = Lonely.x) () = n\n";
  reads "a module alias" "module L = Utc_net.Lonely\nlet y = L.x\n"

let r13_non_readers () =
  check_rules "a reference from test/" [ "R13" ]
    (lonely [ others; ("test/test_x.ml", "let y = Lonely.x\n") ]);
  check_rules "a reference from perfbench/" [ "R13" ]
    (lonely [ others; ("perfbench/w.ml", "let y = Lonely.x\n") ]);
  check_rules "a record field is not the function" [ "R13" ]
    (lonely
       [
         ("bin/others.ml", "let t = Lonely.twice + Lonely.x\n");
         ("bin/use.ml", "let f (r : Utc_net.Lonely.r) = r.Utc_net.Lonely.mean\n");
       ])

let r13_allow () =
  let mli =
    "(* lint:allow R13 -- test oracle *)\n\
     val x : int\n\
     val twice : int\n\
     type r = { mean : float }\n\
     val mean : r -> float\n"
  in
  check_rules "an allow comment above the val" [] (lonely ~mli [ others ])

(* --- call graph unit tests --- *)

let graph_of files =
  let asts =
    List.filter_map
      (fun (path, contents) -> L.Ast_source.parse (L.Source.of_string ~path contents))
      files
  in
  L.Callgraph.build (List.concat_map L.Effects.summarize asts)

let one graph ~from_module name =
  match L.Callgraph.resolve graph ~from_module name with
  | [ s ] -> s
  | ss -> Alcotest.failf "expected one summary for %s (from %s), got %d" name from_module
            (List.length ss)

let callgraph_cycles () =
  let graph =
    graph_of
      [ ("bin/cyc.ml",
         "let rec ping n = if n = 0 then [] else pong (n - 1)\nand pong n = ping n\n") ]
  in
  let names =
    List.sort String.compare
      (List.map
         (fun (s : L.Effects.summary) -> s.L.Effects.s_name)
         (L.Callgraph.reachable graph (one graph ~from_module:"Cyc" "ping")))
  in
  Alcotest.(check (list string)) "reachability terminates on the cycle" [ "ping"; "pong" ] names;
  Alcotest.(check bool) "a cycle is never provably fresh" false
    (L.Callgraph.returns_fresh graph ~from_module:"Cyc" "ping")

let callgraph_freshness () =
  let graph =
    graph_of
      [ ("bin/fr.ml",
         "let make () = Hashtbl.create 8\n\
          let wrap () = make ()\n\
          let get t = Hashtbl.find_opt t \"k\"\n") ]
  in
  let fresh name = L.Callgraph.returns_fresh graph ~from_module:"Fr" name in
  Alcotest.(check bool) "direct constructor" true (fresh "make");
  Alcotest.(check bool) "freshness closes over the graph" true (fresh "wrap");
  Alcotest.(check bool) "a lookup is not fresh" false (fresh "get");
  Alcotest.(check bool) "unresolved paths are not fresh" false (fresh "Registry.find")

let callgraph_shadowed_names () =
  (* Shadow_a.tick mutates a global; Shadow_b defines its own tick. An
     unqualified call in B must resolve inside B only — linking by bare
     name across modules would smear A's effects onto B. *)
  let shadow_a = ("bin/shadow_a.ml", "let count = ref 0\nlet tick () = incr count\n") in
  check_rules "unqualified call resolves in its own module" []
    [
      shadow_a;
      ( "bin/shadow_b.ml",
        "let tick () = ()\n\
         let use pool xs = Utc_parallel.Pool.map_list pool ~f:(fun _ -> tick ()) xs\n" );
    ];
  check_rules "the qualified call still links cross-module" [ "R9" ]
    [
      shadow_a;
      ( "bin/shadow_b.ml",
        "let tick () = ()\n\
         let use pool xs = Utc_parallel.Pool.map_list pool ~f:(fun _ -> Shadow_a.tick ()) xs\n" );
    ]

let callgraph_functor_bodies () =
  (* Effects inside functor bodies are summarized and linked like any
     other module: reachability does not need functor application. *)
  let graph =
    graph_of
      [
        ("bin/helper.ml", "let count = ref 0\nlet bump () = incr count\n");
        ("bin/fmod.ml",
         "module Make (X : sig val n : int end) = struct\n  let go () = Helper.bump ()\nend\n");
      ]
  in
  let names =
    List.sort String.compare
      (List.map
         (fun (s : L.Effects.summary) -> s.L.Effects.s_name)
         (L.Callgraph.reachable graph (one graph ~from_module:"Make" "go")))
  in
  (* [count] rides along: a bare mention of a module-level value links it
     into the graph, same as a function passed by name. *)
  Alcotest.(check (list string)) "functor body reaches the helper" [ "bump"; "count"; "go" ]
    names

(* --- output formats --- *)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || at (i + 1)) in
  nn = 0 || at 0

let report_formats () =
  let diags =
    [
      L.Diagnostic.make ~path:"lib/a.ml" ~line:3 ~rule:"R9" ~message:"say \"hi\"";
      L.Diagnostic.make ~path:"lib/b.ml" ~line:7 ~rule:"R12" ~message:"plain";
    ]
  in
  let json = L.Report.render L.Report.Json diags in
  Alcotest.(check bool) "json escapes quotes" true
    (contains ~needle:"\"message\": \"say \\\"hi\\\"\"" json);
  let sarif = L.Report.render L.Report.Sarif diags in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "sarif contains %s" needle) true
        (contains ~needle sarif))
    [ "\"version\": \"2.1.0\""; "\"ruleId\": \"R9\""; "\"startLine\": 7"; "\"id\": \"R11\"" ];
  Alcotest.(check string) "text format unchanged"
    "lib/a.ml:3: R9 say \"hi\"\nlib/b.ml:7: R12 plain\n"
    (L.Report.render L.Report.Text diags)

(* --- AST diagnostics are stable under comment/whitespace noise --- *)

let pert_fixture =
  "(* lint:hotpath *)\n\
   let rec build n acc =\n\
  \  if n = 0 then acc else build (n - 1) (n :: acc)\n\
   let total = ref 0\n\
   let sweep pool xs =\n\
  \  Utc_parallel.Pool.map_list pool ~f:(fun x -> total := x) xs\n\
   let guard f = try f () with _ -> 0\n\
   let seed = Random.int 10\n"

let perturbation_prop =
  QCheck.Test.make
    ~name:"lint diagnostics stable under comment/whitespace perturbation" ~count:100
    QCheck.(pair (list bool) (list bool))
    (fun (lead, trail) ->
      let nth flags i = match List.nth_opt flags i with Some b -> b | None -> false in
      let perturbed =
        String.split_on_char '\n' pert_fixture
        |> List.mapi (fun i line ->
               let line = if nth lead i then "  " ^ line else line in
               if nth trail i && not (String.equal line "") then line ^ " (* noise *)" else line)
        |> String.concat "\n"
      in
      run [ ("bin/p.ml", perturbed) ] = run [ ("bin/p.ml", pert_fixture) ])

let suite =
  [
    ("scanner blanks non-code", `Quick, scanner_blanks_noncode);
    ("scanner quoted strings", `Quick, scanner_quoted_string);
    ("R1 detects ambient randomness", `Quick, r1_detects);
    ("R1 allowlist", `Quick, r1_allowlist);
    ("R2 detects wall-clock reads", `Quick, r2_detects);
    ("R2 wallclock shim allowlisted", `Quick, r2_wallclock_shim_allowed);
    ("R3 detects polymorphic compare", `Quick, r3_detects);
    ("R3 negatives", `Quick, r3_negatives);
    ("R4 detects hash-order dependence", `Quick, r4_detects);
    ("R4 inline suppression", `Quick, r4_suppression);
    ("R5 mli coverage", `Quick, r5_detects);
    ("R6 stdout confinement", `Quick, r6_detects);
    ("R7 bare Domain confinement", `Quick, r7_detects);
    ("R8 raw-output confinement", `Quick, r8_detects);
    ("R8 examples allowlist", `Quick, r8_examples_allowlist);
    ("allowlist semantics", `Quick, allowlist_semantics);
    ("diagnostic format", `Quick, diagnostic_format);
    ("R9 registry handle race", `Quick, r9_registry_handle);
    ("R9 atomic vs plain counter", `Quick, r9_atomic_vs_plain);
    ("R9 direct and job-local state", `Quick, r9_direct_and_local);
    ("R9 let-bound wrapper results", `Quick, r9_let_bound_results);
    ("R9 suppression", `Quick, r9_suppression);
    ("R10 detects impurity", `Quick, r10_detects);
    ("R10 negatives", `Quick, r10_negatives);
    ("R11 detects hotpath allocs", `Quick, r11_detects);
    ("R11 negatives", `Quick, r11_negatives);
    ("R11 justification", `Quick, r11_justification);
    ("R12 swallowed exceptions", `Quick, r12_detects);
    ("R13 detects exports with no reader", `Quick, r13_detects);
    ("R13 readers", `Quick, r13_readers);
    ("R13 non-readers", `Quick, r13_non_readers);
    ("R13 allow comment", `Quick, r13_allow);
    ("callgraph cycles", `Quick, callgraph_cycles);
    ("callgraph freshness", `Quick, callgraph_freshness);
    ("callgraph shadowed names", `Quick, callgraph_shadowed_names);
    ("callgraph functor bodies", `Quick, callgraph_functor_bodies);
    ("report formats", `Quick, report_formats);
    QCheck_alcotest.to_alcotest pheap_permutation_prop;
    QCheck_alcotest.to_alcotest perturbation_prop;
  ]
