(** One module per congestion-control scheme the evaluation runs.

    The paper builds DELTA per protocol (layered, Fig. 4; replicated,
    Fig. 5; threshold, Eqs. 7–9) under one protocol-independent SIGMA,
    so everything a scenario builder needs from a protocol is the same
    short list: build a config, start a sender, start and meter and
    retire receivers, and address its groups.  {!S} is that list;
    [Spec.impl] maps each [Spec.protocol] to its module, and every
    builder ([Scenario], the matrix cell, the workload builder) unpacks
    one module instead of matching on the protocol. *)

module type S = sig
  type config
  type sender
  type receiver

  val name : string
  (** The CLI short name, e.g. ["flid"]. *)

  val heading : string
  (** The scorecard column heading. *)

  val default_slot : Mcc_mcast.Flid.mode -> float
  (** The slot duration a scenario session gets when none is given:
      FLID-DL's 500 ms for a [Plain] FLID session, 250 ms otherwise
      (paper Section 5.1). *)

  val make :
    id:int ->
    base_group:int ->
    layering:Mcc_mcast.Layering.t ->
    slot_duration:float ->
    mode:Mcc_mcast.Flid.mode ->
    config
  (** The protocol's config with every other knob at its default. *)

  val with_mode : config -> Mcc_mcast.Flid.mode -> config
  (** The same session in another mode: a [Plain] receiver of a
      [Robust] session runs IGMP behind a legacy edge. *)

  val slot_duration : config -> float

  val group_addr : config -> int -> int
  (** Address of group [g] (1-based). *)

  val sender_start :
    Mcc_net.Topology.t ->
    node:Mcc_net.Node.t ->
    prng:Mcc_util.Prng.t ->
    config ->
    sender

  val receiver_start :
    ?at:float ->
    ?behavior:Mcc_mcast.Flid.behavior ->
    Mcc_net.Topology.t ->
    host:Mcc_net.Node.t ->
    prng:Mcc_util.Prng.t ->
    config ->
    receiver
  (** [behavior] is honoured by FLID and replicated receivers; RLM and
      oversub model well-behaved receivers only and ignore it. *)

  val receiver_meter : receiver -> Mcc_util.Meter.t
  (** Bytes of session data reaching the receiver's host. *)

  val receiver_leave : receiver -> unit
  (** A churn departure: FLID and oversub leave every group at once;
      RLM and replicated receivers stop, and their membership decays
      via key expiry. *)

  val history : (receiver -> Mcc_mcast.Flid.submission list) option
  (** The adversary context: a receiver's recent honest key
      submissions, which colluders replay.  [Some] only for FLID, the
      one protocol whose receivers can host a member adversary. *)
end

module Flid :
  S
    with type config = Mcc_mcast.Flid.config
     and type sender = Mcc_mcast.Flid.sender
     and type receiver = Mcc_mcast.Flid.receiver
(** FLID-DS: layered, XOR keys. *)

module Rlm :
  S
    with type config = Mcc_mcast.Rlm_like.config
     and type sender = Mcc_mcast.Rlm_like.sender
     and type receiver = Mcc_mcast.Rlm_like.receiver
(** The RLM-like ladder with Shamir threshold keys. *)

module Replicated :
  S
    with type config = Mcc_mcast.Flid.config
     and type sender = Mcc_mcast.Replicated_proto.sender
     and type receiver = Mcc_mcast.Replicated_proto.receiver
(** Replicated streams with tier switching, on FLID's config. *)

module Oversub :
  S
    with type config = Mcc_mcast.Oversub.config
     and type sender = Mcc_mcast.Oversub.sender
     and type receiver = Mcc_mcast.Oversub.receiver
(** Oversubscribed-CC: FLID's wire format driven by an EWMA of the ECN
    mark fraction. *)
