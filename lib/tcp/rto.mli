(** Retransmission timeout estimation: Jacobson/Karn (RFC 6298).

    srtt and rttvar are the smoothed round-trip time and its linear
    deviation — exactly the "average estimates ... without attempting to
    quantify their uncertainty" that the paper contrasts its approach
    with (§3). The timeout starts at 1 s and stays between 0.2 s (common
    practice; the RFC floor is 1 s) and 60 s. *)

type t

val create : unit -> t

val observe : t -> rtt:float -> unit
(** Feed a round-trip sample from a non-retransmitted segment (Karn's
    algorithm: never sample retransmissions). *)

val on_timeout : t -> unit
(** Exponential backoff: doubles the timeout (clamped to 60 s). *)

val rto : t -> float

(* lint:allow R13 -- test_tcp's "rto" tests pin the RFC 6298 arithmetic through it *)
val srtt : t -> float option
(** [None] before the first sample. *)

(* lint:allow R13 -- test_tcp "rto first sample" pins the RFC 6298 arithmetic through it *)
val rttvar : t -> float option
