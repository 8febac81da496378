(** TCP Reno with an infinite (FTP-like) source.

    Implements the loss recovery the paper's competing traffic needs:
    slow start, congestion avoidance, fast retransmit after three
    duplicate ACKs, fast recovery with window inflation, and an RTO
    estimator with Karn's algorithm and exponential backoff.  Sequence
    numbers count segments, every segment is 576 bytes on the wire (the
    paper's packet size), and ACKs are 40-byte packets on the reverse
    path.  A flow starts with cwnd 1 and ssthresh 64 segments, and its
    RTO stays within [0.5, 60] s. *)

type t

val start :
  ?at:float ->
  Mcc_net.Topology.t ->
  flow:int ->
  src:Mcc_net.Node.t ->
  dst:Mcc_net.Node.t ->
  unit ->
  t
(** Creates the sender at [src] and the sink at [dst] (each claiming
    its packets through {!Mcc_net.Node.add_unicast_handler}) and begins
    transmitting at time [at] (default 0).  [flow] must be unique per
    (src, dst) pair. *)

val delivered_meter : t -> Mcc_util.Meter.t
(** Goodput meter fed by in-order delivery at the sink. *)

val cwnd : t -> float
val retransmissions : t -> int
val timeouts : t -> int

val stop : t -> unit
(** Stops sending and cancels the pending RTO timer. *)
