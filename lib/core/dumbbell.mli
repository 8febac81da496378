(** Single-bottleneck dumbbell topology (paper Section 5.1): every
    session crosses a three-link path whose middle link — the only
    bottleneck — is shared by all sessions.  Sender hosts hang off the
    left router, receiver hosts off the right (edge) router. *)

type t = {
  topo : Mcc_net.Topology.t;
  left : Mcc_net.Node.t;  (** router on the sender side *)
  right : Mcc_net.Node.t;  (** edge router on the receiver side *)
  forward : Mcc_net.Link.t;  (** left -> right bottleneck direction *)
  backward : Mcc_net.Link.t;
  bottleneck_rate_bps : float;
  bottleneck_delay_s : float;
}

val create :
  ?bottleneck_delay_s:float ->
  ?ecn:bool ->
  ?packet_buffer:bool ->
  Mcc_engine.Sim.t ->
  bottleneck_rate_bps:float ->
  unit ->
  t
(** Buffers are sized at two bandwidth-delay products of the standard
    path RTT.  [ecn] adds a marking threshold at half the bottleneck
    buffer.  [packet_buffer] additionally caps the bottleneck queue at
    the equivalent packet count (NS-2-style), which makes small control
    packets as droppable as data. *)

val add_sender : t -> Mcc_net.Node.t
(** New host behind the left router, on a 10 Mbps / 10 ms access link. *)

val add_receiver : ?delay_s:float -> ?rate_bps:float -> t -> Mcc_net.Node.t
(** New host behind the right router.  A [rate_bps] below the shared
    bottleneck models a capacity-limited receiver (the heterogeneity
    that motivates layered multicast). *)

val add_receiver_lan : t -> hosts:int -> Mcc_net.Node.t * Mcc_net.Node.t list
(** A LAN segment behind the right router with [hosts] hosts sharing
    one router interface (for SIGMA suppression scenarios).  Returns
    (lan node, hosts). *)

val finalize : t -> unit
(** Computes unicast routes; call once the topology is complete. *)
