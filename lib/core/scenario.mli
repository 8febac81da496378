(** Scenario builder: composes a dumbbell, multicast sessions (FLID-DL
    or FLID-DS), TCP and CBR cross traffic, and the SIGMA edge-router
    agent, then runs the simulation.

    Everything stochastic draws from a single seed, so a scenario is a
    pure function of its parameters. *)

type receiver_spec = {
  start_at : float;
  behavior : Mcc_mcast.Flid.behavior;
  access_delay_s : float option;  (** overrides the default 10 ms *)
  access_rate_bps : float option;
      (** overrides the default 10 Mbps: a capacity-limited receiver *)
}

val receiver : ?at:float -> ?behavior:Mcc_mcast.Flid.behavior ->
  ?access_delay_s:float -> ?access_rate_bps:float -> unit -> receiver_spec

type session = {
  config : Mcc_mcast.Flid.config;
  sender : Mcc_mcast.Flid.sender;
  receivers : Mcc_mcast.Flid.receiver list;
}

type t

val create :
  ?seed:int ->
  ?sched:Mcc_engine.Scheduler.backend ->
  ?bottleneck_delay_s:float ->
  ?ecn:bool ->
  ?packet_buffer:bool ->
  ?agent_config:Mcc_sigma.Router_agent.config ->
  ?sigma:bool ->
  bottleneck_rate_bps:float ->
  unit ->
  t
(** [sched] selects the event-scheduler backend for the scenario's sim
    (default: the domain's {!Mcc_engine.Scheduler.default}).

    [sigma] (default [true]) controls whether the right edge router runs
    the SIGMA agent.  With [sigma:false] the edge stays a legacy IGMP
    device even for Robust sessions — the paper's incremental-deployment
    counterfactual where DELTA keys flow in band but nothing enforces
    them (Section 3.2.3). *)

val sim : t -> Mcc_engine.Sim.t
val dumbbell : t -> Dumbbell.t
val agent : t -> Mcc_sigma.Router_agent.t option
(** The SIGMA agent on the right edge router; installed as soon as the
    first robust session is added. *)

val sigma_edge :
  config:Mcc_sigma.Router_agent.config ->
  Mcc_net.Topology.t ->
  Mcc_net.Node.t ->
  Mcc_util.Prng.t ->
  Mcc_sigma.Router_agent.t
(** [sigma_edge ~config topo node prng] makes [node] a SIGMA edge: it
    attaches an agent and installs the DELTA scrubber (ECN scrub of
    marked components, interface-key padding), which draws from [prng].
    The dumbbell's right edge and every receiver-side edge of a
    generated topology ([Mcc_workload]) are set up this way, one PRNG
    per agent. *)

val add_session :
  (module Protocol.S
     with type config = 'c
      and type sender = 's
      and type receiver = 'r) ->
  ?receiver_mode:Mcc_mcast.Flid.mode ->
  t ->
  mode:Mcc_mcast.Flid.mode ->
  receivers:receiver_spec list ->
  unit ->
  'c * 's * 'r list
(** Adds a session of any protocol: a sender host on the left, one
    receiver host per spec on the right, the protocol started with its
    default config, the default layering and the module's
    [default_slot].  [receiver_mode] overrides the mode receivers run
    in: Plain receivers of a Robust session model hosts behind a legacy
    edge that still drive subscriptions over IGMP.  Receiver behaviours
    reach only the protocols that model them ({!Protocol.S}). *)

val add_multicast :
  ?slot:float ->
  ?layering:Mcc_mcast.Layering.t ->
  ?fec_scheme:Mcc_sigma.Fec.scheme ->
  ?packet_size:int ->
  ?receiver_mode:Mcc_mcast.Flid.mode ->
  t ->
  mode:Mcc_mcast.Flid.mode ->
  receivers:receiver_spec list ->
  unit ->
  session
(** Adds a sender host on the left, one receiver host per spec on the
    right, and starts the protocol.  Default slot duration: 500 ms for
    FLID-DL, 250 ms for FLID-DS (paper Section 5.1).  [receiver_mode]
    overrides the mode receivers run in: Plain receivers of a Robust
    session model hosts behind a legacy edge that still drive
    subscriptions over IGMP. *)

type replicated_session = {
  rep_config : Mcc_mcast.Flid.config;
  rep_sender : Mcc_mcast.Replicated_proto.sender;
  rep_receivers : Mcc_mcast.Replicated_proto.receiver list;
}

val add_replicated :
  ?slot:float ->
  ?layering:Mcc_mcast.Layering.t ->
  ?receiver_mode:Mcc_mcast.Flid.mode ->
  t ->
  mode:Mcc_mcast.Flid.mode ->
  receivers:receiver_spec list ->
  unit ->
  replicated_session
(** A replicated-multicast session (paper Fig. 5 instantiation) on the
    same dumbbell; shares the SIGMA agent with any FLID-DS session. *)

type rlm_session = {
  rlm_config : Mcc_mcast.Rlm_like.config;
  rlm_sender : Mcc_mcast.Rlm_like.sender;
  rlm_receivers : Mcc_mcast.Rlm_like.receiver list;
}

val add_rlm :
  ?slot:float ->
  ?layering:Mcc_mcast.Layering.t ->
  ?policy:Mcc_mcast.Rlm_like.policy ->
  ?receiver_mode:Mcc_mcast.Flid.mode ->
  t ->
  mode:Mcc_mcast.Flid.mode ->
  receivers:receiver_spec list ->
  unit ->
  rlm_session
(** A threshold-protocol session (RLM-like; [policy] picks the ladder or
    the WEBRC-style equation receiver).  Receiver behaviours in the
    specs are ignored: only well-behaved threshold receivers are
    modelled. *)

val add_tcp : ?at:float -> t -> Mcc_transport.Tcp.t
(** One TCP Reno flow left to right; returns the flow (its meter gives
    the receiver throughput). *)

val add_onoff_cbr :
  ?at:float ->
  ?until:float ->
  t ->
  rate_bps:float ->
  on_period:float ->
  off_period:float ->
  Mcc_transport.On_off.t
(** On-off CBR cross traffic left to right. *)

val run : t -> seconds:float -> unit
(** Computes routes and executes the simulation to the horizon.  May be
    called repeatedly with growing horizons. *)

val bottleneck_drops : t -> int
