(* A pool is a domain count; each map spawns its own domains.

   [map_list] cuts the items into contiguous index chunks of
   ceil(n / domains), spawns one domain per chunk but the last, runs the
   last (possibly short) chunk on the caller, joins every domain it
   spawned and concatenates the chunks in index order. The answer is
   therefore a pure function of the inputs: it never depends on how many
   domains exist or which domain ran which chunk. Contiguous chunks, not
   a shared item counter: a sweep's chunks each hold one run per alpha,
   so they are about equally long. *)

type t = int

let domains t = t
let recommended () = Domain.recommended_domain_count ()

let create ~domains () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  domains

let settle run =
  match run () with
  | v -> Ok v
  | exception e -> Error e

let map_list t ~f items =
  let n = List.length items in
  if t = 1 || n < 2 then List.map f items
  else begin
    let arr = Array.of_list items in
    let size = (n + t - 1) / t in
    let chunks = (n + size - 1) / size in
    let chunk ci () =
      let lo = ci * size in
      Array.init (min size (n - lo)) (fun j -> f arr.(lo + j))
    in
    (* Spawn chunks [0 .. chunks-2], then run the last on the caller. A
       spawn that fails stands in for its chunk's failure: nothing after
       it starts, and every domain already spawned is still joined. *)
    let rec spawn ci spawned =
      if ci = chunks - 1 then (spawned, settle (chunk ci))
      else
        match Domain.spawn (chunk ci) with
        | d -> spawn (ci + 1) (d :: spawned)
        | exception e -> (spawned, Error e)
    in
    let spawned, last = spawn 0 [] in
    let joined = List.rev_map (fun d -> settle (fun () -> Domain.join d)) spawned in
    (* The lowest-indexed failure is the one the serial left-to-right
       map would have raised. *)
    List.concat_map
      (function
        | Ok results -> Array.to_list results
        | Error e -> raise e)
      (joined @ [ last ])
  end

(* --- default pool, sized by UTC_DOMAINS --- *)

(* More domains than the hardware recommends only oversubscribe it: four
   domains on a 2-CPU host ran the harness sweep slower than serial.
   OCaml 5.1 also refuses to spawn past 128 domains. *)
let capped domains = min domains (recommended ())

let env_domains () =
  match Sys.getenv_opt "UTC_DOMAINS" with
  | None -> recommended ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> capped n
    | Some _ | None ->
      invalid_arg (Printf.sprintf "UTC_DOMAINS must be a positive integer, got %S" s))

(* [--domains] or [set_default_domains]; [UTC_DOMAINS] otherwise. *)
let override = Atomic.make None

let default () =
  match Atomic.get override with
  | Some pool -> pool
  | None -> env_domains ()

let set_default_domains domains =
  if domains < 1 then invalid_arg "Pool.set_default_domains: domains must be >= 1";
  Atomic.set override (Some (capped domains))

let default_domains = default
