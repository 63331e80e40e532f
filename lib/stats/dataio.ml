type series = {
  label : string;
  points : (float * float) list;
}

let write_series ~path list =
  let oc = open_out path in
  let write_one s =
    Printf.fprintf oc "# %s\n" s.label;
    List.iter (fun (x, y) -> Printf.fprintf oc "%.9g %.9g\n" x y) s.points;
    Printf.fprintf oc "\n\n"
  in
  (try List.iter write_one list with e -> close_out oc; raise e);
  close_out oc

let write_csv ~path ~header rows =
  let width = List.length header in
  List.iter
    (fun row ->
      if List.length row <> width then invalid_arg "Dataio.write_csv: ragged row")
    rows;
  let oc = open_out path in
  Printf.fprintf oc "%s\n" (String.concat "," header);
  List.iter
    (fun row -> Printf.fprintf oc "%s\n" (String.concat "," (List.map (Printf.sprintf "%.9g") row)))
    rows;
  close_out oc
