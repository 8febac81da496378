(** Threshold-based layered multicast congestion control in the style
    of RLM / MLDA / WEBRC (paper Section 3.1.2, "Congested state"),
    protected by the Shamir-threshold DELTA instantiation.

    A receiver of subscription level g is congested only when its loss
    rate across groups 1..g during a slot exceeds the level's tolerance
    [theta_g]; tolerances shrink at higher levels
    ([theta_g = base / decay^(g-1)]), so every loss rate maps to a fair
    level.  In [Robust] mode the key for level g is split with Shamir's
    (k_g, n_g) scheme over all packets of groups 1..g, with
    [k_g = ceil ((1 - theta_g) n_g)]: exactly the receivers whose loss
    is within tolerance can reconstruct it.  Authorized upgrades
    additionally split an increase key for level g+1 over groups 1..g.
    Because Shamir components cannot be reused across levels, every
    packet carries one share per level above it — the communication
    overhead the paper points out, which the [ablation-threshold]
    registry entries quantify against the XOR scheme. *)

(** How the receiver chooses its target level each slot. *)
type policy =
  | Ladder
      (** classic RLM: one step up when authorized, down to the highest
          level whose tolerance covers the slot's loss *)
  | Equation
      (** WEBRC/TFRC style: a smoothed loss-event rate and a probed
          multicast round-trip time feed the TCP throughput equation,
          and the receiver subscribes to the highest level the resulting
          rate sustains (see {!Tfrc}) *)

type config = {
  id : int;
  base_group : int;
  layering : Layering.t;
  slot_duration : float;
  packet_size : int;
  mode : Flid.mode;
  base_threshold : float;  (** theta_1, default 0.25 (RLM's default) *)
  threshold_decay : float;  (** tolerance shrink per level, default 1.3 *)
  repair_fraction : float;
      (** reliability extension (paper Section 3.1.2, "Reliability"):
          each group additionally carries this fraction of repair
          packets per slot, and key shares span originals and repairs
          alike.  With [base_threshold = aligned_threshold fraction]
          and no decay, key eligibility coincides exactly with data
          recoverability: a receiver that can decode the content can
          open the groups, one that cannot, cannot. *)
  policy : policy;
  upgrade_period : int -> int;
  processing_margin : float;
}

val aligned_threshold : float -> float
(** [fraction /. (1 +. fraction)]: the loss rate a repair budget of
    [fraction] recovers from, hence the matching key threshold. *)

val make_config :
  ?packet_size:int ->
  ?base_threshold:float ->
  ?threshold_decay:float ->
  ?repair_fraction:float ->
  ?policy:policy ->
  ?upgrade_period:(int -> int) ->
  ?processing_margin:float ->
  id:int ->
  base_group:int ->
  layering:Layering.t ->
  slot_duration:float ->
  mode:Flid.mode ->
  unit ->
  config

val group_addr : config -> int -> int

val threshold : config -> level:int -> float
(** theta_g. *)

type Mcc_net.Payload.t +=
  | Rlm_data of {
      session : int;
      group : int;
      slot : int;
      seq : int;
      last : bool;
      repair : bool;  (** an added redundancy packet, not original data *)
      upgrade_mask : int;
      top_shares : (int * Mcc_util.Shamir.share) list;
          (** (level, share) of the level keys, levels >= the group *)
      inc_shares : (int * Mcc_util.Shamir.share) list;
          (** (target level, share) of authorized increase keys *)
    }

type sender

val sender_start :
  ?at:float ->
  Mcc_net.Topology.t ->
  node:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  sender


val share_overhead_bits : sender -> int
(** Total share bits emitted so far — the threshold scheme's
    communication cost. *)

val data_bits : sender -> int

type receiver

val receiver_start :
  ?at:float ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  receiver

val receiver_meter : receiver -> Mcc_util.Meter.t
val receiver_level : receiver -> int

val receiver_rtt : receiver -> float option
(** Smoothed probe round-trip time ([Equation] policy only). *)

val receiver_loss_rate : receiver -> float
(** Smoothed loss-event rate the equation is fed with. *)

val receiver_stop : receiver -> unit
