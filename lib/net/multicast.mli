(** Source-specific multicast trees with explicit graft/prune
    propagation latency.

    Joining a group grafts the path from the requesting router toward
    the group's source hop by hop; each hop costs the link's propagation
    delay (control messages do not compete for data bandwidth, matching
    NS-2's dense-mode abstraction).  Leaves prune an interface after a
    fixed local processing latency; this is the low-leave-latency
    substitute for FLID-DL's dynamic layering (see DESIGN.md §5). *)

val graft : Topology.t -> node:Node.t -> group:int -> down:Link.t -> unit
(** Add [down] to [node]'s downstream set for [group] and, if the node
    was not yet on the tree, propagate a graft toward the source. *)

val prune : Topology.t -> node:Node.t -> group:int -> down:Link.t -> unit
(** Remove [down]; if the downstream set empties and the node keeps no
    local subscription, propagate a prune toward the source. *)

val graft_local : Topology.t -> node:Node.t -> group:int -> unit
(** Put [node] itself on [group]'s tree as a local consumer (no
    downstream interface): grafts upstream if the node was off-tree.
    SIGMA edge routers use this to keep receiving a session's special
    packets while local receivers hold higher groups only. *)

val prune_local : Topology.t -> node:Node.t -> group:int -> unit
(** Drop the node's local interest; prunes upstream if no downstream
    interface remains. *)

val host_join : Topology.t -> host:Node.t -> group:int -> unit
(** IGMP-style join: the host's edge router grafts the host-facing
    interface after the access-link delay.  The join is ignored if the
    router guards the group with SIGMA ([Node.protected_groups]);
    receivers must then present keys. *)

val host_leave : Topology.t -> host:Node.t -> group:int -> unit
(** IGMP-style leave, honoured after 0.05 s of local leave
    processing. *)

val router_of : Topology.t -> Node.t -> Node.t option * Link.t option
(** The router a host or LAN hangs off (its unique router neighbor) and
    the router's link back toward the host, if the topology provides
    them. *)
