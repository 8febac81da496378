(** Unidirectional link: a transmission rate, a propagation delay, and a
    finite drop-tail FIFO buffer, optionally ECN-marking.

    A packet handed to [send] is transmitted immediately if the link is
    idle, queued if the buffer has room, and dropped otherwise.  After
    serialization ([size * 8 / rate] seconds) the packet propagates for
    [delay] seconds and is handed to the receive callback installed by
    the topology. *)

type dst_kind = To_host | To_router | To_lan

(** The link's packet and byte counts, the one count of each event.
    {!create} registers them with the domain's {!Mcc_obs.Metrics}
    registry as one reader, which reports each field under its name
    with a "link." prefix ("link.tx_packets", "link.drops", ...), so
    the snapshot sums them over every link.  Bytes are packet sizes. *)
type counters = private {
  mutable tx_packets : int;  (** serializations begun *)
  mutable tx_bytes : int;
  mutable enqueues : int;  (** packets queued behind a busy link *)
  mutable enqueue_bytes : int;
  mutable drops : int;  (** packets refused by a full buffer *)
  mutable drop_bytes : int;
  mutable marks : int;  (** packets ECN-marked on enqueue *)
  mutable mark_bytes : int;
}

type t = {
  id : int;
  src : int;  (** node id of the transmitting end *)
  dst : int;  (** node id of the receiving end *)
  dst_kind : dst_kind;
  rate_bps : float;
  delay_s : float;
  buffer_bytes : int;  (** queue capacity, excluding the packet in service *)
  buffer_packets : int option;
      (** optional NS-2-style packet-count cap applied on top of the
          byte cap; keeps small control packets from being undroppable
          in a byte-quantized queue *)
  ecn_threshold_bytes : int option;
      (** mark instead of waiting for loss once occupancy exceeds this *)
  sim : Mcc_engine.Sim.t;
  queue : Packet.t Pool.Fifo.t;  (** drop-tail FIFO, ring-buffer backed *)
  mutable queued_bytes : int;
  mutable busy : bool;
  mutable rev : t option;  (** reverse direction of a duplex pair *)
  mutable deliver : Packet.t -> unit;
  counts : counters;
}

val create :
  sim:Mcc_engine.Sim.t ->
  id:int ->
  src:int ->
  dst:int ->
  dst_kind:dst_kind ->
  rate_bps:float ->
  delay_s:float ->
  buffer_bytes:int ->
  ?buffer_packets:int ->
  ?ecn_threshold_bytes:int ->
  unit ->
  t
(** @raise Invalid_argument on non-positive rate or negative delay. *)

val send : t -> Packet.t -> bool
(** Transmit or queue the packet ([true]), or drop it ([false]).  A
    [false] return is synchronous: the link holds no reference to the
    packet, which lets the multicast fan-out recycle dropped branch
    copies ({!Packet.release}). *)

val control_delay : t -> float
(** Propagation delay only; used for control-plane messages (grafts,
    prunes, IGMP reports) that do not compete for data bandwidth. *)
