(** The slot-clocked chassis shared by every multi-group protocol in
    this library: FLID-DL/DS, the RLM-like threshold protocol,
    replicated multicast and oversubscribed CC.

    All of them divide time into sender-driven slots.  The sender
    authorizes upgrades per slot, paces each group's packets by credit
    and spreads them over the slot.  The receiver counts a slot's
    packets, decides congestion once the slot has closed (or 0.9 of a
    slot after its end, if a group fell silent; later packets count as
    lost), and subscribes for slot s+2: over IGMP in [Plain] mode, or by presenting DELTA keys
    to its SIGMA edge router in [Robust] mode (paper Figs. 4 and 5,
    Eqs. 7-9).

    The chassis owns that machinery.  A protocol supplies data: its
    lanes, its per-slot key state, what one packet feeds into that
    state, and its control law over a closed slot. *)

val mask_bit : int -> int -> bool
(** [mask_bit mask g]: does the upgrade mask authorize level [g]? *)

(** {1 Sender} *)

val sender_start :
  ?at:float ->
  ?span:string ->
  Mcc_net.Topology.t ->
  node:Mcc_net.Node.t ->
  base_group:int ->
  rates:float array ->
  packet_size:int ->
  repair_fraction:float ->
  slot_duration:float ->
  upgrade_period:(int -> int) ->
  prepare:(slot:int -> mask:int -> counts:int array -> 'st) ->
  emit:('st -> group:int -> slot:int -> seq:int -> last:bool -> repair:bool ->
        mask:int -> unit) ->
  unit ->
  unit
(** Registers the groups (group g at address [base_group + g - 1], one
    per entry of [rates], in bit/s) with [node] as their source and
    ticks a slot every [slot_duration] from [at] (default 0).

    Each tick draws the slot's upgrade mask (bit g-1 set when
    [(slot + g) mod upgrade_period g = 0]) and each group's packet
    count, carrying fractional packets across slots; [repair_fraction]
    adds that share of repair packets on top.  Then [prepare] builds the
    slot's key state (and distributes it), and finally every packet is
    posted group by group, spread evenly over the slot and de-phased
    across groups; [emit] sends one at its instant.  [span] names a
    {!Mcc_obs.Prof} span around each tick. *)

(** {1 Receiver} *)

type lane = {
  mutable count : int;  (** packets received this slot *)
  mutable marked : int;  (** of which ECN-marked *)
  mutable last : int;  (** seq of the flagged last packet; -1 until then *)
}
(** What one lane saw during one slot.  A layered session has a lane per
    group; a replicated one has a single lane for its subscribed
    group. *)

type 'k slot = {
  lanes : lane array;
  keys : 'k option;  (** the slot's DELTA state; [None] in [Plain] mode *)
  mutable mask : int;  (** union of the upgrade masks seen *)
}

type names = {
  prefix : string;
      (** time-series prefix: "<prefix>.s<session>.h<host>.goodput_kbps" *)
  component : string;  (** tracer component of level changes *)
  event : string;  (** tracer event of a level change *)
  field : string;  (** "level" or "group": gauge suffix and trace attribute *)
  changes : string;  (** counter ticked on each level change *)
}
(** The observable names a protocol reports its receivers under. *)

type ('k, 's) t = {
  proto : ('k, 's) proto;
  state : 's;  (** the protocol's own receiver state *)
  topo : Mcc_net.Topology.t;
  host : Mcc_net.Node.t;
  client : Mcc_sigma.Client.t option;  (** [Some] exactly in [Robust] mode *)
  meter : Mcc_util.Meter.t;  (** bytes of session data reaching the host *)
  series : Mcc_util.Series.t;  (** (time, level) at every {!set_level} *)
  mutable level : int;
      (** the subscription level, or the subscribed group of a one-lane
          session *)
  active_since : int array;
      (** per lane: first slot the lane is evaluated for; [max_int] when
          unsubscribed *)
  highest : int array;  (** per lane: highest slot seen *)
  slots : (int, 'k slot) Hashtbl.t;
  mutable base : float;  (** sender time of slot 0, as seen here *)
  mutable synced : bool;
  mutable next_eval : int;  (** the next slot to evaluate *)
  mutable stopped : bool;
}

and ('k, 's) proto = {
  names : names;
  session : int;
  base_group : int;
  groups : int;
  lane_count : int;
  slot_duration : float;
  key_width : int;  (** key width of the SIGMA client *)
  new_keys : (unit -> 'k) option;
      (** [Some] in [Robust] mode: the receiver joins through SIGMA and
          each slot gets fresh key state *)
  feed : 'k -> Mcc_net.Payload.t -> unit;
      (** feeds one packet's key material into its slot's key state *)
  lane_of : level:int -> group:int -> int;
      (** the lane a packet of [group] counts in, or -1 for none *)
  law : ('k, 's) t -> int -> 'k slot -> unit;
      (** the control law, run once per slot when it closes *)
  attrs : 's -> (string * Mcc_obs.Json.t) list;
      (** extra trace attributes of a level change *)
}

val create :
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  ('k, 's) proto ->
  's ->
  ('k, 's) t
(** A receiver at level 1 with no lane active yet.  Creates the SIGMA
    client in [Robust] mode and registers the goodput and level
    samplers. *)

val start : ?at:float -> ('k, 's) t -> (Mcc_net.Packet.t -> unit) -> unit
(** Installs the packet handler on every group of the session and joins
    the minimal group at [at] (default 0): SIGMA session-join in
    [Robust] mode, IGMP otherwise.  The handler decodes the protocol's
    payload and calls {!on_packet}. *)

val on_packet :
  ('k, 's) t ->
  Mcc_net.Packet.t ->
  group:int ->
  slot:int ->
  seq:int ->
  last:bool ->
  mask:int ->
  unit
(** Accounts one session packet: meters it, syncs the slot clock on the
    first one, counts it in its lane, feeds its key material while its
    slot is still open, then evaluates every slot that has closed. *)

val effective_level : ('k, 's) t -> int -> int
(** The largest level e such that lanes 1..e have all been active since
    before the slot: partial slots of fresh lanes are not losses. *)

val group_lost : 'k slot -> int -> bool
(** Whether lane [g] (1-based) missed a packet: none arrived, the
    flagged last one did not, or fewer arrived than it numbers. *)

val set_level : ('k, 's) t -> int -> unit
(** Sets the level and records it: series, counter and trace record. *)

val addr : ('k, 's) t -> int -> int
(** Address of group [g]. *)

val join : ('k, 's) t -> int -> unit
(** IGMP join of group [g]. *)

val leave_group : ('k, 's) t -> int -> unit
(** IGMP leave of group [g]. *)

val session_join : ('k, 's) t -> unit
(** SIGMA session-join of the minimal group; no-op without a client. *)

val subscribe : ('k, 's) t -> slot:int -> (int * Mcc_delta.Key.t) list -> unit
(** SIGMA subscription of (group address, key) pairs for [slot]; no-op
    without a client or pairs. *)

val unsubscribe : ('k, 's) t -> int -> int -> unit
(** [unsubscribe t lo hi]: SIGMA unsubscription of groups [lo..hi]. *)

val resubscribe : ('k, 's) t -> slot:int -> release:bool -> int -> unit
(** [resubscribe t ~slot ~release next] moves a layered SIGMA receiver
    to the level its keys opened for slot+2: groups above [next] are
    unsubscribed when [release] and stop being evaluated, a new top
    group is evaluated from slot+2, and [next = 0] (even the minimal
    key chain broke) re-admits through session-join at level 1. *)

val knock : ('k, 's) t -> 'k slot -> unit
(** A silent minimal lane while at level 1 means the SIGMA grant lapsed
    (e.g. during an outage): session-join again. *)

val stop : ('k, 's) t -> unit
(** Freezes the receiver: no further evaluation or subscriptions. *)

val leave : ('k, 's) t -> unit
(** Orderly departure of a layered receiver: leave groups 1..level at
    once (one SIGMA unsubscription, IGMP leaves otherwise) and stop. *)
