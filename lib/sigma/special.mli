(** Sender-side distribution of address-key tuples to edge routers
    (paper Section 3.2.1).

    Tuples for the slot guarded two slots ahead are FEC-encoded and
    transmitted as router-alert multicast packets down the session's
    minimal-group tree: every on-tree edge router intercepts them, and
    they are never forwarded onto host-facing interfaces.  Packets are
    spaced over the first half of the slot, repetition copies
    interleaved so correlated drops hit distinct chunks. *)

type stats = {
  packets : int;
  payload_bits : int;  (** tuple + slot-number bits, after FEC expansion *)
  header_bits : int;  (** h: header bits spent this slot *)
  expansion : float;  (** z of the scheme used *)
}

val distribute :
  ?scheme:Fec.scheme ->
  Mcc_net.Topology.t ->
  sender:Mcc_net.Node.t ->
  session:int ->
  via_group:int ->
  width:int ->
  slot:int ->
  slot_duration:float ->
  tuples:Tuple.t list ->
  unit ->
  stats
(** Default scheme is [Repetition 2] (the paper's z of about 2) with at
    most 16 tuples per packet. *)
