(** Oversubscribed congestion control: a cumulative layered session
    whose receivers are driven by an EWMA of the per-slot ECN mark
    fraction rather than FLID's loss-per-slot rule.

    The wire format and the sender are FLID's ({!Flid.Data} packets,
    slot-clocked layered groups, DELTA key material for slot s+2
    distributed through SIGMA): Oversub is a receiver-side control law
    over that machinery.  Per slot the receiver computes the fraction
    of its arrivals that carried an ECN mark (a lost packet saturates
    the signal to 1), folds it into an EWMA [g], and then

    - if [g > 0.3]: multiplicative decrease — the rate variable is
      scaled by [1 - (g - 0.3) * 0.5] and the probe quantum resets;
      the subscription drops to the highest level whose cumulative rate
      fits (possibly several levels at once, via DELTA decrease keys);
    - otherwise: exponential probing — the rate grows by an additive
      quantum of 10 kbps that doubles every consecutive uncongested slot
      (to at most 2^6 times that), and the receiver adds a layer when
      the rate crosses the next cumulative rate and the slot's mask
      authorizes it.

    The EWMA gain is 0.5.

    Under the DELTA + SIGMA + ECN defence this protocol stresses the
    ECN-scrubbing edge far harder than FLID-DS: a marked packet's
    component field is scrubbed by the trusted edge, so any marked slot
    breaks top-key reconstruction and forces the decrease-key path even
    when the EWMA alone would have held the level. *)

type config = {
  flid : Flid.config;  (** wire format, slot clock and key machinery *)
}

val make_config :
  id:int ->
  base_group:int ->
  layering:Layering.t ->
  slot_duration:float ->
  mode:Flid.mode ->
  unit ->
  config
(** FLID's default configuration ({!Flid.make_config}) under the
    control law above. *)

val group_addr : config -> int -> int
(** Address of group [g] (1-based). *)

(** {1 Sender}

    The sender is FLID's, byte for byte: same slot tick, same DELTA
    precomputation, same SIGMA tuple distribution. *)

type sender = Flid.sender

val sender_start :
  ?at:float ->
  Mcc_net.Topology.t ->
  node:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  sender

val sender_stats : sender -> Flid.sender_stats

(** {1 Receiver} *)

type receiver

val receiver_start :
  ?at:float ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  receiver
(** Joins the minimal group at [at] (SIGMA session-join in [Robust]
    mode, IGMP otherwise) and runs the EWMA control law every slot.
    [prng] is unused by the honest receiver and kept for construction
    uniformity across the protocol library. *)

val receiver_meter : receiver -> Mcc_util.Meter.t
(** Bytes of session data reaching the receiver's host. *)

val receiver_level : receiver -> int
(** Current subscription level. *)

val level_series : receiver -> Mcc_util.Series.t
(** (time, level) samples recorded at every level change. *)

val mark_ewma : receiver -> float
(** Current EWMA of the mark fraction. *)

val congestion_events : receiver -> int
(** Slots that observed a congestion signal (loss or at least one
    mark). *)

val decrease_events : receiver -> int
(** Slots on which the EWMA exceeded the target and the rate variable
    was multiplicatively decreased. *)

val receiver_stop : receiver -> unit
(** Freezes the receiver; group membership decays via key expiry. *)

val receiver_leave : receiver -> unit
(** Orderly departure: leave every subscribed group at once (an
    unsubscription message under SIGMA, IGMP leaves otherwise) and
    stop. *)
