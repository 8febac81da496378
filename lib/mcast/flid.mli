(** FLID-DL and FLID-DS: cumulative layered multicast congestion
    control, without and with the paper's DELTA + SIGMA protection.

    A session has N groups carrying layers at multiplicatively growing
    cumulative rates.  Time is divided into sender-driven slots; every
    data packet names its (group, slot, sequence) coordinates, flags the
    group's last packet of the slot, and carries the slot's upgrade
    authorization mask.  A receiver that loses any packet of its
    subscription during a slot is congested and drops its top layer; an
    uncongested receiver may add a layer when the mask authorizes an
    upgrade to the next level (paper Section 3.1.1 subscription rules).

    In [Robust] mode ([FLID-DS]) every packet additionally carries DELTA
    component and decrease fields for the keys of slot s+2, the sender
    distributes address-key tuples to edge routers through SIGMA special
    packets, and receivers must present reconstructed keys to their edge
    router each slot.  In [Plain] mode ([FLID-DL]) group membership is
    plain IGMP-style join/leave, which is what the inflated-subscription
    attack exploits. *)

type mode = Plain | Robust

type config = {
  id : int;  (** session id *)
  base_group : int;  (** address of group 1; group g is base + g - 1 *)
  layering : Layering.t;
  slot_duration : float;
  packet_size : int;  (** data bytes per packet (the paper's 576) *)
  mode : mode;
  fec_scheme : Mcc_sigma.Fec.scheme;
}

val make_config :
  ?packet_size:int ->
  ?fec_scheme:Mcc_sigma.Fec.scheme ->
  id:int ->
  base_group:int ->
  layering:Layering.t ->
  slot_duration:float ->
  mode:mode ->
  unit ->
  config
(** Default FEC [Repetition 2].  Every session keys with
    {!Mcc_delta.Key.default_width}-bit DELTA keys and authorizes
    upgrades to level g every {!default_upgrade_period} slots; its
    receivers evaluate a silent slot at {!Slotted}'s fallback
    margin. *)

val group_addr : config -> int -> int
(** Address of group [g] (1-based). *)

val default_upgrade_period : Layering.t -> int -> int
(** [max 2 (ceil (R_g / R_1))] slots between authorizations to level g
    (probing slows multiplicatively at higher levels); shared with the
    other multi-group protocols in this library. *)

type Mcc_net.Payload.t +=
  | Data of {
      session : int;
      group : int;  (** 1-based group index *)
      slot : int;
      seq : int;  (** per-group sequence within the slot, from 0 *)
      last : bool;  (** group's final packet of the slot *)
      upgrade_mask : int;  (** bit g-1 set: upgrade to level g authorized *)
      delta : Mcc_delta.Field.t option;  (** present in [Robust] mode *)
    }

(** {1 Sender} *)

type sender_stats = {
  mutable slots : int;
  mutable data_bits : int;
  mutable delta_bits : int;
  mutable sigma_payload_bits : int;
  mutable sigma_header_bits : int;
  mutable sigma_packets : int;
  mutable authorizations : int array;
      (** [authorizations.(g-1)]: slots that authorized an upgrade to g *)
  mutable fec_expansion : float;  (** z of the last slot's encoding *)
}

type sender

val sender_start :
  ?at:float ->
  Mcc_net.Topology.t ->
  node:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  sender
(** Registers the session's groups with the topology and begins slot
    ticking and per-group emission at [at] (default 0). *)

val sender_stats : sender -> sender_stats

val sender_keys_for_slot :
  sender -> slot:int -> Mcc_delta.Layered.keys option
(** Keys guarding [slot] (Robust mode; the four most recent slots are
    retained).  Exposed for tests. *)

(** {2 The sending half for the replicated instantiation}

    {!Replicated_proto}'s sender runs FLID's per-slot key work and
    per-packet DELTA fields with its own key draw and wire constructor. *)

val slot_keys :
  create:
    (prng:Mcc_util.Prng.t ->
    width:int ->
    groups:int ->
    upgrades:bool array ->
    Mcc_delta.Layered.sender) ->
  config ->
  Mcc_util.Prng.t ->
  mask:int ->
  Mcc_delta.Layered.sender
(** The slot's DELTA sender state, drawn by [create] from the PRNG at
    {!Mcc_delta.Key.default_width} bits, with an upgrade to g authorized
    where [mask] sets bit g-1 (g >= 2). *)

val distribute_keys :
  config ->
  Mcc_net.Topology.t ->
  node:Mcc_net.Node.t ->
  guarded:int ->
  Mcc_delta.Layered.keys ->
  Mcc_sigma.Special.stats
(** Sends every group's {!Mcc_delta.Layered.valid_keys} for slot
    [guarded] to the edge routers through SIGMA special packets from
    [node], FEC-coded with the config's scheme, over the minimal
    group's tree. *)

val delta_field :
  Mcc_delta.Layered.sender option ->
  group:int ->
  last:bool ->
  Mcc_delta.Field.t option
(** The DELTA fields of the next packet of [group]; [None] without key
    state (Plain mode). *)

val field_bytes : Mcc_delta.Field.t option -> int
(** Wire bytes the fields add to a packet. *)

(** {1 Receivers} *)

type submission = {
  sub_slot : int;  (** the guarded slot the pairs were submitted for *)
  sub_pairs : (int * Mcc_delta.Key.t) list;  (** (group address, key) *)
}

type adv_ctx = {
  actx_time : float;  (** simulated now *)
  actx_slot : int;  (** the guarded slot being subscribed (s + 2) *)
  actx_entitled : (int * Mcc_delta.Key.t) list;
      (** (group address, key) pairs the receiver honestly reconstructed
          for this slot *)
  actx_groups : int list;  (** every group address of the session *)
  actx_fresh_key : unit -> Mcc_delta.Key.t;
      (** a random w-bit key drawn from the receiver's own PRNG *)
  actx_history : submission list;
      (** the receiver's past honest submissions, newest first (bounded
          to 16): raw material for stale replay *)
}
(** What a receiver-side adversary sees each time the honest protocol
    would submit keys to the edge router. *)

type adversary = {
  adv_label : string;
  adv_active : time:float -> bool;
      (** whether the receiver misbehaves at [time]; re-evaluated every
          slot, so on–off (pulse) strategies simply gate on the clock.
          While inactive the receiver is indistinguishable from an
          honest one. *)
  adv_submit : adv_ctx -> submission list;
      (** the submissions actually sent while active, in place of the
          honest one (Robust mode; a [Plain] misbehaving receiver just
          IGMP-joins every group) *)
}
(** A pluggable receiver-side adversary.  [Mcc_attack.Strategy] builds
    these; {!inflation_adversary} is the canonical example. *)

type behavior =
  | Well_behaved
  | Inflate_after of float
      (** misbehave from the given time on: a [Plain] receiver joins
          every group; a [Robust] receiver submits its eligible keys
          plus random guesses for all higher groups.  Sugar: normalised
          to [Adversarial (inflation_adversary ~at)] at
          {!receiver_start}. *)
  | Adversarial of adversary

val inflation_adversary : at:float -> adversary
(** The paper's Figure 1 misbehaviour: from [at] on, claim every group
    of the session, guessing a random key for each group the receiver
    is not eligible for.  The single implementation behind
    [Inflate_after] and the attack subsystem's persistent-inflation
    strategy. *)

val inflation_guesses : adv_ctx -> (int * Mcc_delta.Key.t) list
(** The guessed (group address, key) pairs [inflation_adversary]
    appends: one fresh random key per group not covered by
    [actx_entitled], in group order.  Building block for budgeted
    key-guessing strategies. *)

type receiver

val receiver_start :
  ?at:float ->
  ?behavior:behavior ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  receiver

val receiver_meter : receiver -> Mcc_util.Meter.t
(** Bytes of session data reaching the receiver's host. *)

val receiver_level : receiver -> int
(** Current subscription level (what the receiver believes). *)

val level_series : receiver -> Mcc_util.Series.t
(** (time, level) samples recorded at every level change. *)

val congestion_events : receiver -> int

val receiver_stop : receiver -> unit
(** Freezes the receiver (no further evaluation or subscriptions);
    group membership decays via key expiry.  For an orderly departure
    use {!receiver_leave}. *)

val receiver_leave : receiver -> unit
(** The paper's explicit unsubscription (Section 3.2.2, Figure 6c): the
    receiver leaves all its groups at once — an unsubscription message
    under SIGMA, IGMP leaves otherwise — and stops. *)

val receiver_history : receiver -> submission list
(** The receiver's recent honest (slot, key) submissions, newest first,
    bounded — what an accomplice leaks to colluders (Section 4.2) and a
    stale-replay adversary mines. *)

val set_colluder : receiver -> source:receiver -> unit
(** Turns the receiver into a colluder (paper Section 4.2): every slot
    it replays the (slot, key) submissions its accomplice [source] —
    typically a receiver behind a cleaner path — last made, instead of
    reconstructing keys from its own reception.  Defeated by the SIGMA
    agent's [interface_keys] option, which makes keys interface-specific. *)

(** {1 The wire format for other control laws}

    {!Oversub} runs its own control law over FLID's packets. *)

val receiver_proto :
  config ->
  names:Slotted.names ->
  law:
    ((Mcc_delta.Layered.receiver, 's) Slotted.t ->
    int ->
    Mcc_delta.Layered.receiver Slotted.slot ->
    unit) ->
  attrs:('s -> (string * Mcc_obs.Json.t) list) ->
  (Mcc_delta.Layered.receiver, 's) Slotted.proto
(** One lane per group and, in [Robust] mode, layered DELTA key state
    per slot. *)

val on_data :
  (Mcc_delta.Layered.receiver, 's) Slotted.t -> Mcc_net.Packet.t -> unit
(** The receiver's packet handler, for {!Slotted.start}. *)
