(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic element of the simulator draws from an explicit
    generator so that a simulation run is a pure function of its seed:
    same seed, same trace.  The generator is splittable, which lets each
    traffic source own an independent stream derived from the scenario
    seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Two generators created from
    the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int -> int
(** [bits t b] returns a uniformly distributed non-negative integer of
    exactly [b] random bits, [0 < b <= 62]. *)

val int : t -> int -> int
(** [int t bound] returns a uniform integer in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)
