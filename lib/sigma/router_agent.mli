(** SIGMA edge-router agent: the protocol-independent enforcement point
    (paper Section 3.2).

    The agent intercepts special packets, decodes the per-slot
    address-key tuples, and guards every host-facing interface: group
    traffic is forwarded only while the interface holds a grant — a
    validated key for the current slot, or a grace window.  Grace
    windows cover the two-complete-slot gaps the paper identifies: after
    a keyed upgrade to a new group, and after a session-join to the
    minimal group (which needs no key and forwards for 3 slots, but is
    then locked out for a slot if no valid key followed; the lockout
    doubles per repeat, up to 4 slots).  Acks are sized at 16-bit keys.

    Expired state is swept every 50 ms, at a cost that follows what
    expires.  The sweep folds every interface's grants once, and acts
    on those that lapsed while grafted in (link id, group) order:
    lockout (with its "sigma.evictions" record) and prune.  When the
    router holds a session's special-packet channel, it builds the set
    of groups with an active grant in one more pass, and releases each
    channel none of whose session's groups is in it, in the order the
    held-channel table yields them.  A group's slot entries are folded
    only once the earliest of their expiries (ten durations after the
    guarded slot's estimated start) has passed.  Revoking session-join
    graces for a group that tuples reveal as non-minimal also goes by
    link id.  So no output depends on the order of a hash table: the
    group, interface and grant tables are [Mcc_net.Node.Itbl]s, whose
    iteration order is neither key order nor the generic [Hashtbl]'s.

    The agent stores keys per (group address, slot) and estimates slot
    wall-clock boundaries from special-packet arrival (tuples for slot s
    arrive during slot s-2, paper Figure 2), so it needs no
    protocol-specific code — Requirement 3.

    It keeps one FEC decoder per session, for the newest slot whose
    special packets have arrived.  That relies on specials arriving in
    slot order: {!Special.distribute} sends every special of slot s
    within the first half of slot s-2, and links are FIFO, so none of
    slot s reaches the router after one of slot s+1.  The first special
    of a newer slot replaces the session's decoder. *)

type config = {
  upgrade_grace_slots : float;
      (** unconditional forwarding after a keyed graft, in slots
          (paper: 2 complete slots) *)
  interface_keys : bool;
      (** collusion resistance (paper Section 4.2): the router pads
          every forwarded component per interface, so a key lifted from
          a receiver on another interface no longer validates.  The
          padding itself is performed by the protocol integration (see
          {!note_pad}, {!decrease_pad}); validation then accepts a key
          if some candidate — corrected by the interface's cumulative
          component pad for top or increase keys, or by its decrease
          pad — matches an upper key from the sender.
          Assumes consecutively addressed session groups, trading
          generality for collusion resistance exactly as the paper
          notes. *)
}

val default_config : config
(** Two grace slots, no interface keys. *)

type t

val attach : ?config:config -> Mcc_net.Topology.t -> Mcc_net.Node.t -> t
(** Installs intercept, filter and forwarding hooks on an edge router.
    @raise Invalid_argument if the node is not an [Edge_router]. *)

val set_scrubber : t -> (Mcc_net.Link.t -> Mcc_net.Packet.t -> unit) -> unit
(** Component transform, called per outgoing copy with its interface
    link: on every ECN-marked copy (scrub, paper Section 3.1.2), and on
    every copy when [interface_keys] is enabled (per-interface padding,
    Section 4.2). *)

val interface_keys_enabled : t -> bool

val note_pad :
  t -> link_id:int -> group:int -> guarded_slot:int -> pad:Mcc_delta.Key.t ->
  unit
(** Record that a forwarded component of [group] (whose components build
    the keys of [guarded_slot]) was XOR-padded with [pad] on the given
    interface.  The protocol integration calls this from the node's
    forwarding hook as it rewrites each copy. *)

val decrease_pad :
  t ->
  link_id:int ->
  group:int ->
  guarded_slot:int ->
  fresh:(unit -> Mcc_delta.Key.t) ->
  Mcc_delta.Key.t
(** The stable pad applied to every forwarded copy of [group]'s decrease
    key for [guarded_slot] on the given interface, created with [fresh]
    on first use.  Decrease keys are per-slot constants, so one pad per
    (interface, group, slot) keeps the receiver's view consistent while
    making the key interface-specific. *)

val iface_active : t -> group:int -> toward:int -> bool
(** Is traffic for [group] currently forwarded toward node [toward]? *)

val guess_count : t -> group:int -> slot:int -> int
(** Distinct invalid keys submitted for (group, slot): the paper's
    indicator of a key-guessing attack. *)

val total_guesses : t -> int
(** Sum of {!guess_count} over every (group, slot), kept as a running
    total.  Honest receivers contribute only when the router's keystore
    has gaps (lost special packets), which makes this a sensitive
    FEC-quality metric. *)

(** One receiver's contiguous run of rejected keys: opened by the first
    Subscribe carrying an invalid (group, key) pair, extended by every
    further rejection, closed ([kf_ended = Some t]) by the receiver's
    next fully valid Subscribe — or left open if it never recovers.
    The boundaries are also emitted as Warn-level "key_failure_start" /
    "key_failure_end" trace events on "sigma.router", the raw material
    of the [mcc report] attack timeline.  The agent updates a span in
    place; {!failure_audit} hands out copies. *)
type key_failure = private {
  kf_receiver : int;
  kf_first : float;  (** sim time of the first rejection *)
  mutable kf_last : float;  (** sim time of the latest rejection *)
  mutable kf_rejects : int;  (** total rejected pairs in the span *)
  mutable kf_ended : float option;
}

val failure_audit : t -> key_failure list
(** A copy of every key-failure span seen so far, closed and still-open,
    ordered by start time. *)

(** Lifetime activity of one agent: the agent's own counters, one per
    quantity, each bumped where its event happens.  {!attach} registers
    them with the domain's metrics registry as one reader, so each
    snapshot reads them as they stand and sums them over every agent of
    the domain's current run, under "sigma.*" names: subscriptions,
    keys_accepted, keys_rejected, acks, upgrade_graces,
    grace_admissions, suppressed_duplicates (suppressed joins plus FEC
    duplicates), unsubscribes, lockouts, specials (special packets) and
    guesses (distinct guesses), and the FEC duplicates alone as
    "sigma.fec.duplicates".  The agent also observes the
    "sigma.subscribe_pairs" histogram. *)
type stats = private {
  mutable subscriptions : int;  (** Subscribe messages processed *)
  mutable keys_accepted : int;  (** (group, key) pairs that validated *)
  mutable keys_rejected : int;  (** pairs that failed validation *)
  mutable acks : int;  (** Sub_ack messages sent *)
  mutable upgrade_graces : int;
      (** grace windows opened by keyed activation *)
  mutable grace_admissions : int;  (** keyless session-join admissions *)
  mutable suppressed_joins : int;
      (** session-joins for already-active interfaces, absorbed without
          effect *)
  mutable fec_duplicates : int;
      (** FEC packets that added no information (repeat copies or
          chunks, or arrivals after the slot decoded) *)
  mutable unsubscribes : int;  (** groups explicitly released by receivers *)
  mutable lockouts : int;  (** minimal-group pauses after keyless expiry *)
  mutable special_packets : int;  (** special packets intercepted *)
  mutable distinct_guesses : int;  (** = {!total_guesses} *)
}

val stats : t -> stats
(** A copy of the agent's counters, so an earlier read keeps its
    values. *)

val known_groups : t -> int list
(** Groups the agent has received tuples for, in no particular order. *)

(** The three receiver messages (paper Figure 6) arrive as unicast
    packets addressed to the router and are handled internally; these
    entry points are exposed for tests. *)

val handle_subscribe :
  ?lineage:Mcc_obs.Lineage.t ->
  t ->
  receiver:int ->
  slot:int ->
  pairs:(int * Mcc_delta.Key.t) list ->
  unit
(** [?lineage] is the subscribe packet's causal record: the agent
    stamps a "sigma.subscribe" hop, preserves the whole chain as a
    "key_reject" case when any key is denied (first rejected
    [(group, key)] pair in the attrs, key rendered [0x%04x]), and
    retires it.  Omitted by direct test callers. *)

val handle_unsubscribe : t -> receiver:int -> groups:int list -> unit
val handle_session_join : t -> receiver:int -> group:int -> unit
