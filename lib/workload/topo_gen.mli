(** Deterministic, seed-driven topology generators over
    {!Mcc_net.Topology}.

    Each generator is a pure function of its parameters (and, for the
    random ISP graph, of the supplied PRNG): node ids, link creation
    order and therefore {!Mcc_net.Topology.dump} are reproducible byte
    for byte — the property the generator-determinism tests pin down.

    Shapes:
    - [Dumbbell_topo]: the paper's two-router dumbbell, [hosts]
      receiver hosts behind the right edge;
    - [Fat_tree k]: the canonical k-ary fat tree ((k/2)^2 cores, k pods
      of k/2 aggregation + k/2 edge routers, k/2 hosts per edge);
    - [Star_lans]: one core, [lans] edge routers, [hosts_per_lan] hosts
      each, sender directly on the core;
    - [Isp_random]: a random recursive tree over [routers] cores plus
      [extra_links] shortcuts, one edge router with [hosts_per_edge]
      hosts per core.

    Buffers are sized at two bandwidth-delay products (as in
    {!Mcc_core.Dumbbell}); with [ecn] every core link marks at half its
    buffer. *)

type built = {
  topo : Mcc_net.Topology.t;
  sender : Mcc_net.Node.t;  (** the multicast source host *)
  pool : Mcc_net.Node.t list;
      (** receiver hosts in deterministic (edge, then attach) order;
          workloads use a prefix of this pool *)
  edges : Mcc_net.Node.t list;
      (** receiver-side edge routers — the SIGMA attach points *)
}

val capacity : spec:Mcc_core.Spec.topology_spec -> hosts:int -> int
(** Size of [pool] the spec would generate ([hosts] is only read for
    the dumbbell, whose pool is sized on demand), saturating at
    [max_int] rather than wrapping.  Lets the schema validate receiver
    counts without building anything. *)

val access_link : Mcc_net.Topology.t -> Mcc_net.Node.t -> Mcc_net.Node.t -> unit
(** Standard access link (10 Mbps / 10 ms, two-BDP buffer) from a
    router to a host; used by the traffic installer to attach dedicated
    cross-traffic sources with the same sizing as generated hosts. *)

val build :
  ?ecn:bool ->
  Mcc_engine.Sim.t ->
  prng:Mcc_util.Prng.t ->
  spec:Mcc_core.Spec.topology_spec ->
  hosts:int ->
  built
(** Builds the shape into a fresh topology on [sim].  [hosts] is the
    number of receiver hosts the workload will actually use; the
    dumbbell creates exactly that many, the generated shapes create
    their structural pool.
    @raise Invalid_argument on malformed shape parameters or when the
    shape provides fewer than [hosts] receiver hosts. *)
