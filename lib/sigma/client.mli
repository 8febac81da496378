(** Receiver-side SIGMA endpoint.

    Sends session-join / subscribe / unsubscribe messages to the local
    edge router, retransmits subscriptions until acknowledged (every
    80 ms, at most five times), and
    suppresses subscriptions whose address-key pairs were already
    acknowledged to another receiver on the same interface (observed
    through the host's promiscuous tap) — paper Section 3.2.2. *)

type t

val create : ?width:int -> Mcc_net.Topology.t -> host:Mcc_net.Node.t -> t
(** Locates the host's edge router via the topology.
    @raise Invalid_argument if the host has no router neighbor. *)

val router : t -> Mcc_net.Node.t

val session_join : t -> group:int -> unit

val subscribe : t -> slot:int -> pairs:(int * Mcc_delta.Key.t) list -> unit
(** Pairs already acknowledged on this interface (to any receiver) are
    filtered out; if every pair is covered, nothing is sent. *)

val unsubscribe : t -> groups:int list -> unit

val messages_sent : t -> int
(** Control packets transmitted, retransmissions included. *)

val acked_pairs : t -> slot:int -> (int * Mcc_delta.Key.t) list
(** Pairs known (sent or snooped) to be acknowledged for [slot]. *)
