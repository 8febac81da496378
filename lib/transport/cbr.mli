(** Constant-bit-rate source: fixed-size packets at a fixed rate. *)

type t

val start :
  ?at:float ->
  Mcc_net.Topology.t ->
  src:Mcc_net.Node.t ->
  dst:Mcc_net.Packet.dst ->
  rate_bps:float ->
  size:int ->
  unit ->
  t
(** Emits a [size]-byte {!Mcc_net.Payload.Raw} packet every
    [size * 8 / rate_bps] seconds starting at [at] (default 0). *)

val pause : t -> unit
(** Suspends emission (packets already in flight are unaffected). *)

val resume : t -> unit
val stop : t -> unit
