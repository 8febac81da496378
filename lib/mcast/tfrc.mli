(** TCP-friendly rate computation (the TFRC / WEBRC ingredient).

    WEBRC-style receivers do not react to individual losses: they
    estimate a smoothed loss event rate and a multicast round-trip time
    and set their subscription to the level whose cumulative rate the
    TCP throughput equation sustains (paper Section 2.2: protocols that
    "monitor a long-term history of losses to determine the fair
    subscription level").  This module is the pure arithmetic; the
    protocol wiring lives in {!Rlm_like}. *)

val throughput :
  packet_bytes:int -> rtt:float -> loss_rate:float -> float
(** The Padhye/TFRC response function in bits per second:

    {v s / (R sqrt(2p/3) + t_RTO (3 sqrt(3p/8)) p (1 + 32 p^2)) v}

    with [t_RTO = 4 R].  Returns [infinity] when [loss_rate = 0].
    @raise Invalid_argument on non-positive [packet_bytes] or [rtt], or
    a [loss_rate] outside [0, 1]. *)

(** Exponentially weighted estimator of the per-slot loss rate. *)
module Loss_estimator : sig
  type t

  val create : unit -> t
  (** A new sample weighs 0.1: roughly a ten-slot memory. *)

  val update : t -> loss_rate:float -> unit
  val value : t -> float
  (** 0 before the first sample. *)

  val samples : t -> int
end
