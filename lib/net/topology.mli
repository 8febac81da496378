(** Topology builder: nodes, duplex links, static shortest-path routing,
    and the multicast group registry (group address -> source node). *)

type t

val create : Mcc_engine.Sim.t -> t

val sim : t -> Mcc_engine.Sim.t

val add_node : t -> Node.kind -> Node.t
(** Node ids are assigned densely from 0. *)

val node : t -> int -> Node.t
(** @raise Invalid_argument on an unknown id. *)

val nodes : t -> Node.t list

val connect :
  t ->
  Node.t ->
  Node.t ->
  rate_bps:float ->
  delay_s:float ->
  buffer_bytes:int ->
  ?buffer_packets:int ->
  ?ecn_threshold_bytes:int ->
  unit ->
  Link.t * Link.t
(** Creates a duplex link (two simplex links wired as each other's
    [rev]) and installs delivery into the endpoints. *)

val compute_routes : t -> unit
(** Sets every node's routes (read through {!Node.route}) to
    delay-metric shortest paths over propagation delay plus 1e-9 s a
    hop, so that of two equal-delay paths the one with fewer hops wins.
    A node with one link reaches every other node of its connected
    component through that link, so only the R nodes with two or more
    links run a Dijkstra, and each keeps a table of first hops by node
    id.  Nodes settle in (distance, id) order, each relaxes its [links]
    in list order, and only a strictly shorter path replaces a node's
    first hop: among paths that still tie, the first hop is the one
    through the node that settles first, the lower id at equal
    distance.  It takes O(R E log E + N) time for N nodes and E simplex
    links, and R N + N words of tables and component ids, plus 5 words
    per single-link node.  Call after the topology is complete and
    before traffic starts; routes do not see nodes or links added
    later. *)

val register_group : t -> group:int -> source:Node.t -> unit
(** Declares [source] as the root of [group]'s distribution tree. *)

val group_source : t -> int -> Node.t option

val links : t -> Link.t list
(** All simplex links, for counters and reports. *)

val dump : t -> string
(** A canonical plain-text rendering of the graph: nodes in id order,
    simplex links in creation order ("src->dst rate delay buffer"),
    registered groups in address order.  Deterministic builds render to
    identical bytes — the contract the seed-driven topology generators
    are tested against. *)
