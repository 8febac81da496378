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

type config = {
  id : int;
  base_group : int;
  layering : Layering.t;  (** level g = single group g at rate R_g *)
  slot_duration : float;
  mode : Flid.mode;  (** [Plain] or [Robust], as for FLID *)
}

val make_config :
  id:int ->
  base_group:int ->
  layering:Layering.t ->
  slot_duration:float ->
  mode:Flid.mode ->
  unit ->
  config
(** Packets carry 576 data bytes; keys, upgrade authorizations and the
    silent-slot fallback are FLID's ({!Flid.make_config}). *)

val group_addr : config -> int -> int

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

type sender

val sender_start :
  ?at:float ->
  Mcc_net.Topology.t ->
  node:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  sender


val sender_keys_for_slot :
  sender -> slot:int -> Mcc_delta.Replicated.keys option

type receiver

val receiver_start :
  ?at:float ->
  ?behavior:Flid.behavior ->
  Mcc_net.Topology.t ->
  host:Mcc_net.Node.t ->
  prng:Mcc_util.Prng.t ->
  config ->
  receiver

val receiver_meter : receiver -> Mcc_util.Meter.t

val receiver_group : receiver -> int
(** The single group currently subscribed; re-admission through SIGMA's
    session-join restarts at group 1. *)

val group_series : receiver -> Mcc_util.Series.t
val receiver_stop : receiver -> unit
