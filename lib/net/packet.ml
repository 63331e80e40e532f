type t = {
  seq : int;
  flow : Flow.t;
  bits : int;
  sent_at : Utc_sim.Timebase.t;
}

let default_bits = 12_000
let make ?(bits = default_bits) ~flow ~seq ~sent_at () = { seq; flow; bits; sent_at }
