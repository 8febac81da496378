(** Pluggable attack strategies against multicast congestion control.

    A strategy is a paper-grounded recipe for inflating a subscription:
    what to claim, when, and with which (if any) forged proof.  Each
    strategy is described declaratively — name, paper section, expected
    defence outcome — and realised as an {!instance}: a bundle of
    simulated-clock callbacks a harness drives.  Two harnesses exist:

    - the {e member} adapter ({!member}) turns an instance into a
      {!Mcc_mcast.Flid.adversary}, i.e. a misbehaving receiver inside a
      FLID session whose [on_slot] callback replaces the honest key
      submission; under a [Plain]-mode session the receiver degrades to
      the IGMP join-everything misbehaviour, gated by [active];
    - the {e bare} driver ({!launch_bare}) runs the strategy as a
      standalone attacker host with its own SIGMA client (or raw IGMP
      joins when the edge is legacy), which is how attacks are mounted
      against protocols whose receivers take no behaviour parameter
      (RLM-like, replicated), how grace-window churn acts on the
      control channel, and how a workload mounts its attacker.

    Instances carry their own mutable state (guess cursors, hit
    counters), so one instance drives exactly one attacker.  All
    strategies publish "attack.*" metrics and trace under the
    "attack.strategy" component. *)

module Spec := Mcc_core.Spec
module Flid := Mcc_mcast.Flid

type instance = {
  label : string;
  active : time:float -> bool;
      (** whether the attacker misbehaves at simulated [time];
          re-evaluated every slot (on–off strategies gate here) *)
  on_slot : Flid.adv_ctx -> Flid.submission list;
      (** per-slot key submissions replacing the honest one.  The member
          adapter wires this into the receiver's subscription path; the
          bare driver calls it on its own slot tick with an empty
          entitlement. *)
  on_key_result : slot:int -> group:int -> accepted:bool -> unit;
      (** validation verdicts for submitted keys, observed one slot
          after submission through the SIGMA client's ack state (driven
          by the bare driver, which owns the client) *)
}

type t = {
  name : string;  (** = [Spec.attack_str kind] *)
  kind : Spec.attack_kind;
  paper : string;  (** the paper section that motivates the attack *)
  doc : string;
  expected : string;  (** the defence outcome the paper predicts *)
  instantiate :
    attack_at:float ->
    slot_duration:float ->
    prng:Mcc_util.Prng.t ->
    instance;
      (** a fresh instance (fresh mutable state) for one attacker *)
}

val of_kind : Spec.attack_kind -> t
(** The strategy implementing a spec-level attack kind. *)

val member : instance -> Flid.adversary
(** Adapt an instance into a misbehaving FLID session member. *)

(** {1 Bare attacker} *)

val launch_bare :
  ?feed:(unit -> Flid.submission list) ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  groups:int list ->
  slot_duration:float ->
  sigma:bool ->
  attack_at:float ->
  Spec.attack_kind ->
  Mcc_util.Meter.t
(** [launch_bare topo ~host ... kind] starts a standalone attacker
    mounting [kind] from [host] at [attack_at], against the session
    whose group addresses are [groups] (minimal group first), and
    returns its meter: the bytes of session traffic reaching the host.
    The strategy is instantiated through {!of_kind} with [prng], which
    also draws the attacker's guessed keys.  A slot tick of
    [slot_duration] evaluates [active] and, where the edge enforces
    keys ([sigma]), sends [on_slot]'s submissions through a SIGMA
    client (acks drive [on_key_result]); on a legacy edge it turns
    claims into IGMP joins.  [Spec.Grace_churn] runs its join/leave
    cycle on the control channel instead of submitting keys:
    session-join, hold through the grace window, unsubscribe, rejoin
    next cycle.

    [feed] overrides the [actx_history] the slot tick presents to
    [on_slot] — by default the attacker's own past submissions; a
    collusion harness passes the accomplice's
    {!Mcc_mcast.Flid.receiver_history} here. *)
