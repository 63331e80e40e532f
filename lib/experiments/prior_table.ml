type result = {
  trace : Harness.sample list;
  final : Harness.sample;
}

let run ?(seed = 1) ?(duration = 300.0) () =
  let trace = (Harness.run { Harness.default with seed; duration }).Harness.samples in
  match List.rev trace with
  | final :: _ -> { trace; final }
  | [] -> invalid_arg "Prior_table.run: the run took no belief sample"

let pp_report ppf result =
  Format.fprintf ppf "Prior table (S4): posterior mass on the true parameter values@.";
  Format.fprintf ppf "prior: the paper's discretized uniform table; truth: c=12000, r=0.7c,@.";
  Format.fprintf ppf "p=0.2, capacity=96000, fullness=0@.@.";
  Format.fprintf ppf "%8s %8s %8s %8s %8s %8s %8s@." "t(s)" "P(c)" "P(r)" "P(p)" "P(buf)"
    "P(fill)" "hyps";
  let step = Stdlib.max 1 (List.length result.trace / 20) in
  let pp_masses ppf (m : Harness.sample) =
    Format.fprintf ppf "%8.3f %8.3f %8.3f %8.3f %8.3f %8d" m.m_link m.m_rate m.m_loss m.m_buffer
      m.m_fullness m.belief_size
  in
  List.iteri
    (fun i (m : Harness.sample) ->
      if i mod step = 0 then Format.fprintf ppf "%8.1f %a@." m.at pp_masses m)
    result.trace;
  Format.fprintf ppf "%8s %a  (final)@." "" pp_masses result.final;
  Format.fprintf ppf
    "@.(paper: the sender quickly pares the prior down and \"figures out all the@.";
  Format.fprintf ppf
    " parameters of the channel\" by 100 s; capacity stays ambiguous when the@.";
  Format.fprintf ppf " sender never overflows the buffer, which the paper's alpha>=1 senders@.";
  Format.fprintf ppf " never do)@."
