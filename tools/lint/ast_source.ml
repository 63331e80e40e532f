type t = {
  source : Source.t;
  module_name : string;
  structure : Parsetree.structure;
}

let module_name_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* Anything the upstream parser rejects (or chokes on) simply opts the
   file out of the semantic pass; the lexical rules still see it. Real
   repo code always parses — the build would have failed first. *)
let parse_with ~suffix parser (source : Source.t) =
  if not (Filename.check_suffix source.Source.path suffix) then None
  else begin
    let lexbuf = Lexing.from_string source.Source.raw in
    Lexing.set_filename lexbuf source.Source.path;
    match parser lexbuf with tree -> Some tree | exception _ -> None
  end

let parse source =
  Option.map
    (fun structure ->
      { source; module_name = module_name_of_path source.Source.path; structure })
    (parse_with ~suffix:".ml" Parse.implementation source)

let parse_interface = parse_with ~suffix:".mli" Parse.interface

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum
