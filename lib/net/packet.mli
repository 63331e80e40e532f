(** Packets.

    The paper assumes the sender always sends packets of uniform length
    (§3.2); {!default_bits} is the 1,500-byte packet of the §4 experiment.
    Sequence numbers are per flow. *)

type t = {
  seq : int;
  flow : Flow.t;
  bits : int;
  sent_at : Utc_sim.Timebase.t;
}

val default_bits : int
(** 12,000 bits = 1,500 bytes. *)

val make : ?bits:int -> flow:Flow.t -> seq:int -> sent_at:Utc_sim.Timebase.t -> unit -> t
