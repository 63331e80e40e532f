(** Simulated time.

    Time is a [float] count of seconds since the start of the simulation.
    All modules in this project use this one representation; helpers here
    centralize comparison, closeness (used when comparing predicted and
    observed packet arrival times) and formatting. *)

type t = float

val zero : t

val infinity : t
(** A time later than every event; used as a sentinel horizon. *)

val add : t -> t -> t
val sub : t -> t -> t

val compare : t -> t -> int

val ( <. ) : t -> t -> bool
val ( <=. ) : t -> t -> bool
val ( >. ) : t -> t -> bool
val ( >=. ) : t -> t -> bool

val close : tol:float -> t -> t -> bool
(** [close ~tol a b] holds when [|a - b| <= tol]. *)

val pp : Format.formatter -> t -> unit
(** Prints as seconds with millisecond precision, e.g. ["12.345s"]. *)
