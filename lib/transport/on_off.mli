(** On-off CBR source: alternates fixed on and off periods, transmitting
    at the configured rate during on periods (the paper's cross-traffic:
    10% of bottleneck capacity, 5-second periods; and the 800 Kbps burst
    of the responsiveness experiment). *)

type t

val start :
  ?at:float ->
  ?until:float ->
  Mcc_net.Topology.t ->
  src:Mcc_net.Node.t ->
  dst:Mcc_net.Packet.dst ->
  rate_bps:float ->
  size:int ->
  on_period:float ->
  off_period:float ->
  unit ->
  t
(** Starts an on period at [at] (default 0); if [until] is given, the
    source stops for good at that time. *)
