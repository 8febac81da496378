(** Network nodes: hosts, routers, and LAN segments.

    Routers forward unicast packets by FIB lookup and multicast packets
    along per-group downstream interface sets.  Hosts terminate traffic
    and dispatch it to registered handlers.  A LAN node models a shared
    edge-router interface: it repeats every packet to all attached
    links, which is what makes SIGMA's per-interface semantics (ack
    suppression, shared subscriptions) observable. *)

type kind = Host | Edge_router | Core_router | Lan

(** The node's int-keyed tables: [Hashtbl.Make] over [int] with
    [Int.equal] and the key masked non-negative as its hash, so a lookup
    on the per-packet path makes no C call ([caml_hash],
    [compare_val]).  Node ids are consecutive and group addresses are
    handed out consecutively, so the keys spread across buckets as they
    are.  Bucket order differs from the generic [Hashtbl]'s; nothing
    iterates these tables, so no output depends on it.
    SIGMA's [Router_agent] tables keep the generic [Hashtbl]: its
    sweeps and [known_groups] iterate them, so their order is part of
    the outputs. *)
module Itbl : Hashtbl.S with type key = int

type t = {
  id : int;
  kind : kind;
  sim : Mcc_engine.Sim.t;
  mutable links : Link.t list;  (** outgoing links *)
  fib : Link.t Itbl.t;  (** destination node -> next-hop link *)
  mcast_out : Link.t list ref Itbl.t;  (** group -> downstream interfaces *)
  local_groups : (Packet.t -> unit) Itbl.t;
  mutable local_unicast : (Packet.t -> unit) option;
  mutable unicast_handlers : (Packet.t -> bool) list;
      (** handlers registered through {!add_unicast_handler}, in
          registration order *)
  mutable mcast_filter : (int -> Link.t -> bool) option;
      (** consulted before forwarding group traffic onto host- or
          LAN-facing links; SIGMA's enforcement point *)
  mutable intercept : (Packet.t -> unit) option;
      (** router-alert packets are handed here on routers *)
  mutable on_forward : (int -> Link.t -> Packet.t -> unit) option;
      (** called on each fresh multicast copy before it leaves a router;
          the hook may mutate the copy (SIGMA's ECN component scrub) *)
  mutable promiscuous : (Packet.t -> unit) option;
      (** host-only tap: sees every packet reaching the host regardless
          of destination (SIGMA ack suppression on shared LANs) *)
  protected_groups : unit Itbl.t;
      (** groups for which this router ignores plain IGMP joins because
          SIGMA guards them *)
}

val create : sim:Mcc_engine.Sim.t -> id:int -> kind:kind -> t

val receive : t -> from:Link.t option -> Packet.t -> unit
(** Entry point wired to [Link.deliver]: local delivery plus forwarding. *)

val originate : t -> Packet.t -> unit
(** Inject a packet at this node: unicast goes out the FIB next hop,
    multicast fans out over the node's downstream set (the node must be
    the group source for multicast traffic to flow). *)

val subscribe_local : t -> group:int -> (Packet.t -> unit) -> unit
(** Register (or replace) this node's local handler for a group. *)

val unsubscribe_local : t -> group:int -> unit

val set_unicast_handler : t -> (Packet.t -> unit) -> unit

val add_unicast_handler : t -> (Packet.t -> bool) -> unit
(** Shares the node's unicast delivery between transport endpoints:
    handlers are tried in registration order until one returns [true]
    (claims the packet).  The first call installs the dispatcher as the
    node's unicast handler; calling {!set_unicast_handler} afterwards
    would bypass it. *)

val downstream : t -> group:int -> Link.t list
(** Current downstream interfaces for a group. *)

val add_downstream : t -> group:int -> Link.t -> bool
(** Adds a downstream interface.  Returns [true] when the group had no
    downstream interfaces before (i.e. the caller must graft upstream). *)

val remove_downstream : t -> group:int -> Link.t -> bool
(** Removes an interface.  Returns [true] when the set became empty
    (i.e. the caller must prune upstream). *)

val link_to : t -> int -> Link.t option
(** Direct link to a neighbor node id, if one exists. *)
