(** Replicated multicast congestion control (paper Section 3.1.2,
    "Session structure", and Figure 5).

    Each group of the session carries the {e same} content at a
    different rate (group 1 slowest, group N fastest) and a receiver
    subscribes to exactly one group: it switches down one group when
    congested, and up one group when uncongested and authorized.  In
    [Robust] mode the session is protected by the replicated DELTA
    instantiation — per-group top keys, decrease fields naming the next
    lower group's key, increase keys equal to the lower group's
    component XOR — enforced by the same generic SIGMA agent that
    guards FLID-DS. *)

type Mcc_net.Payload.t +=
  | Rep_data of {
      session : int;
      group : int;
      slot : int;
      seq : int;
      last : bool;
      upgrade_mask : int;
      delta : Mcc_delta.Field.t option;
    }
(** FLID's {!Flid.Data} fields under a constructor of their own: the
    SIGMA edge's ECN scrubber and interface padding
    ({!Mcc_core.Scenario}) match only [Flid.Data], so they leave
    replicated packets as sent, and no replicated packet carries a
    lineage origin. *)

type sender

val sender_start :
  ?at:float ->
  Mcc_net.Topology.t ->
  node:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  Flid.config ->
  sender
(** A FLID config serves unchanged: level g is the single group g, sent
    at the cumulative rate R_g of [layering].  Packets carry the
    config's [packet_size] data bytes; keys, upgrade authorizations, the
    SIGMA distribution and its FEC scheme, and the silent-slot fallback
    are FLID's. *)

type receiver

val receiver_start :
  ?at:float ->
  ?behavior:Flid.behavior ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  Flid.config ->
  receiver

val receiver_meter : receiver -> Mcc_util.Meter.t

val receiver_group : receiver -> int
(** The single group currently subscribed; re-admission through SIGMA's
    session-join restarts at group 1. *)

val group_series : receiver -> Mcc_util.Series.t
val receiver_stop : receiver -> unit
