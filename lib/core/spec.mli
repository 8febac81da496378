(** First-class experiment specifications.

    Every experiment of the paper's evaluation (Figures 1, 7, 8a–8h,
    9a, 9b, plus the Section 3.2.3 incremental-deployment study) and
    every study beyond its figures is described by a parameter record; [t] is the sum of those records.
    A spec is pure data: the same spec always produces the same result
    ({!Experiments.run} is a pure function of it), which is what lets
    {!Runner} farm batches of specs out to domains and still merge
    byte-identical outputs.

    Each record has a [default_*] value carrying the paper's settings;
    build variants with record update syntax:
    [{ Spec.default_attack with mode = Flid.Plain; duration = 60. }]. *)

type mode = Mcc_mcast.Flid.mode

type attack_params = {
  seed : int;
  duration : float;  (** simulated seconds *)
  attack_at : float;  (** when receiver F1 starts inflating *)
  mode : mode;
}
(** Figures 1 / 7: two multicast + two TCP sessions over a 1 Mbps
    bottleneck; receiver F1 inflates its subscription at [attack_at]. *)

type sweep_params = {
  seed : int;
  duration : float;
  sessions : int;  (** number of concurrent multicast sessions *)
  cross_traffic : bool;
      (** one TCP flow per session plus an on-off CBR (Figure 8d) *)
  mode : mode;
}
(** One point of Figures 8a–8d.  The figure's sweep is a batch of these
    specs, one per session count — independent runs, so they
    parallelise. *)

type responsiveness_params = {
  seed : int;
  duration : float;
  burst_start : float;
  burst_stop : float;
  burst_rate_bps : float;
  mode : mode;
}
(** Figure 8e: one session plus a CBR burst on a 1 Mbps bottleneck. *)

type rtt_params = {
  seed : int;
  duration : float;
  receivers : int;  (** RTTs spread uniformly over 30–220 ms *)
  mode : mode;
}
(** Figure 8f. *)

type convergence_params = {
  seed : int;
  duration : float;
  join_times : float list;  (** one receiver joins at each time *)
  mode : mode;
}
(** Figures 8g / 8h. *)

type overhead_axis = Groups | Slot

type overhead_params = {
  seed : int;
  duration : float;
  groups : int;
  slot : float;  (** slot duration in seconds *)
  axis : overhead_axis;
      (** which parameter the containing figure varies; selects the
          x coordinate of the resulting point (9a: groups, 9b: slot) *)
}
(** One point of Figures 9a / 9b: DELTA and SIGMA communication
    overhead, analytic and measured. *)

type partial_params = {
  seed : int;
  duration : float;
  attack_at : float;
}
(** Incremental deployment (paper Section 3.2.3): the same inflation
    attack behind a SIGMA edge router and behind a legacy IGMP one. *)

type attack_kind =
  | Persistent_inflation
      (** F1's behaviour from Figure 1: join everything, forever. *)
  | Pulse_inflation of { period_s : float; duty : float }
      (** On-off inflation with period [period_s] and on-fraction
          [duty], timed against RED's averaging window. *)
  | Key_guessing of { budget_per_slot : int }
      (** Submit up to [budget_per_slot] random w-bit keys per slot for
          groups the attacker holds no key for (paper Section 3.2.2's
          guessing analysis, against the agent's tally/lockout). *)
  | Stale_replay of { lag_slots : int }
      (** Replay keys that were valid [lag_slots] slots ago: DELTA keys
          are per-slot, so the edge router must reject them. *)
  | Grace_churn of { period_slots : float }
      (** Join/leave cycling every [period_slots] slots, riding SIGMA's
          session-join grace window without ever presenting a key. *)
  | Collusion of { colluders : int }
      (** [colluders] extra receivers replay the keys a clean-path
          accomplice reconstructs (paper Section 4.2). *)
(** The adversary catalogue.  Every strategy is implemented in
    [Mcc_attack.Strategy]; the payloads here are the knobs the matrix
    sweeps. *)

type protocol = Flid_ds | Rlm_threshold | Replicated | Oversub
(** Which congestion-control scheme the session under attack runs:
    FLID-DS (XOR keys), the RLM-like ladder with Shamir threshold keys,
    replicated streams with tier switching, or the oversubscribed-CC
    layered scheme driven by an EWMA of the ECN mark fraction. *)

type defence = Undefended | Delta_only | Delta_sigma | Delta_sigma_ecn
(** The defence column of the matrix: plain IGMP, DELTA behind a legacy
    edge, the paper's full DELTA + SIGMA, and its ECN-marking variant;
    {!deployment} says what each one deploys. *)

type adversary_params = {
  seed : int;
  duration : float;
  attack_at : float;  (** when the strategy arms itself *)
  attack : attack_kind;
  protocol : protocol;
  defence : defence;
}
(** One cell of the defence-evaluation matrix: a multicast session with
    one honest receiver and one adversary, plus a TCP flow, sharing a
    bottleneck provisioned at two fair shares. *)

type topology_spec =
  | Dumbbell_topo  (** the classic two-router dumbbell (paper setup) *)
  | Fat_tree of { k : int; core_rate_bps : float }
      (** k-ary fat tree: (k/2)^2 core routers, k pods of k/2 aggregation
          and k/2 edge routers, k/2 hosts per edge.  [k] must be even. *)
  | Star_lans of { lans : int; hosts_per_lan : int; core_rate_bps : float }
      (** one core router fanning out to [lans] edge routers, each
          serving a LAN segment of [hosts_per_lan] hosts *)
  | Isp_random of {
      routers : int;
      extra_links : int;
      hosts_per_edge : int;
      core_rate_bps : float;
    }
      (** ISP-like random graph: a seed-grown random tree over [routers]
          core routers plus [extra_links] random shortcut links, one
          edge router with [hosts_per_edge] hosts per core router *)
(** Seed-driven deterministic topology generators: the same (spec, seed)
    pair always yields a byte-identical {!Mcc_net.Topology} dump. *)

type churn_spec =
  | No_churn
  | Flash_crowd of { at : float; arrivals : int; leave_after : float }
      (** [arrivals] extra receivers join in a burst at [at] and leave
          [leave_after] seconds later *)
  | Diurnal of { period : float; fraction : float }
      (** [fraction] of the receivers cycle off and on with [period],
          phase-staggered — a compressed day/night wave *)
  | Regional_outage of { at : float; restore_at : float; fraction : float }
      (** a correlated slice of the receiver population (one "region")
          drops at [at] and rejoins at [restore_at] *)
(** Receiver-churn models; instants are horizon times and scale with
    {!scale_time}. *)

type traffic_spec =
  | Web_mix of { flows : int; rate_bps : float; mean_on : float; mean_off : float }
      (** web-like on/off CBR background flows with exponential on/off
          holding times drawn from the workload's seed *)
  | Tcp_flows of { flows : int }  (** long-lived TCP cross flows *)

type workload_params = {
  seed : int;
  duration : float;
  topology : topology_spec;
  protocol : protocol;
  defence : defence;
  receivers : int;  (** base receiver population (before churn) *)
  churn : churn_spec;
  traffic : traffic_spec list;
  attack : attack_kind option;  (** an optional bare attacker host *)
  attack_at : float;
}
(** One declarative workload: a generated topology carrying one
    multicast session under a chosen defence, plus churn, background
    traffic, and optionally an attacker.  Parsed from workload files by
    [Mcc_workload.Schema]; executed by the [Mcc_workload] build hook. *)

type study =
  | Protocol_mix
      (** one session each of FLID-DS, replicated, the RLM ladder and
          the WEBRC-style equation receiver, plus one TCP flow, on a
          1.25 Mbps bottleneck (250 kbps per flow) *)
  | Key_passing of { interface_keys : bool }
      (** a colluder behind a 150 kbps access link replays the keys of
          its clean-path accomplice (paper Section 4.2) *)
  | Ecn_signal of { ecn : bool }
      (** one FLID-DS receiver at the fair share, drop-tail or ECN
          marking (paper Section 3.1.2) *)
  | Oversub_receivers
      (** three honest oversubscribed-CC receivers on a 1 Mbps ECN
          dumbbell *)
  | Fec_scheme of { scheme : Mcc_sigma.Fec.scheme }
      (** SIGMA key distribution under a full-rate on-off interferer,
          with a packet-count bottleneck buffer *)
  | Upgrade_grace of { grace_slots : float }
      (** SIGMA's unconditional forwarding after a keyed upgrade *)
  | Slot_length of { slot : float; burst_start : float; burst_stop : float }
      (** FLID-DS slot duration against an 800 Kbps burst, measured in
          Figure 8e's windows *)
  | Key_material of { shamir : bool }
      (** in-band key bits of the XOR scheme (FLID-DS) or of Shamir
          threshold keys (RLM-like) *)
(** The studies beyond the paper's figures: its extensions and the
    design ablations. *)

type study_params = {
  seed : int;
  duration : float;
  warmup : float;  (** throughput is metered over [warmup, duration] *)
  study : study;
}
(** One point of a study; the result is a list of named numbers. *)

type t =
  | Attack of attack_params
  | Sweep of sweep_params
  | Responsiveness of responsiveness_params
  | Rtt of rtt_params
  | Convergence of convergence_params
  | Overhead of overhead_params
  | Partial of partial_params
  | Adversary of adversary_params
  | Workload of workload_params
  | Study of study_params

val default_attack : attack_params
(** seed 7, 200 s, attack at 100 s, FLID-DS. *)

val default_sweep : sweep_params
(** seed 12 (the legacy API's seed 11 + sessions), 200 s, 1 session, no
    cross traffic, FLID-DS. *)

val default_responsiveness : responsiveness_params
(** seed 19, 100 s, 800 Kbps burst during [45 s, 75 s], FLID-DS. *)

val default_rtt : rtt_params
(** seed 23, 200 s, 20 receivers, FLID-DS. *)

val default_convergence : convergence_params
(** seed 29, 40 s, joins at 0/10/20/30 s, FLID-DS. *)

val default_overhead : overhead_params
(** seed 31, 30 s, 10 groups, 250 ms slots, [Groups] axis. *)

val default_partial : partial_params
(** seed 37, 120 s, attack at 40 s. *)

val default_adversary : adversary_params
(** seed 41, 120 s, attack at 30 s, persistent inflation against
    FLID-DS under DELTA + SIGMA. *)

val default_workload : workload_params
(** seed 43, 120 s, fat-tree(4) with a 2 Mbps core, FLID-DS under
    DELTA + SIGMA, 6 receivers, no churn/traffic/attack. *)

val attack_str : attack_kind -> string
(** "inflate", "pulse", "guess", "replay", "churn" or "collude". *)

val protocols : protocol list
(** The protocol registry, in matrix column order.  {!protocol_str},
    {!protocol_heading}, the matrix's default protocol set and the CLI
    [--protocols] parser all derive from this list and {!impl}. *)

val impl : protocol -> (module Protocol.S)
(** The protocol's module: everything a scenario builder needs to run
    it.  The only dispatch on {!protocol}; adding a protocol means one
    {!Protocol} module, one arm here and one {!protocols} entry. *)

val protocol_str : protocol -> string
(** The module's [name]: "flid", "rlm", "replicated" or "oversub". *)

val protocol_heading : protocol -> string
(** The module's scorecard column heading. *)

val defences : defence list
(** The defence registry, in matrix column order.  The matrix's default
    defence set, the CLI [--defences] parser and the workload schema
    all read this list. *)

type deployment = {
  sigma : bool;
      (** a SIGMA agent on the receiver-side edge router(s); [false]
          leaves a legacy IGMP edge that enforces nothing *)
  sender_mode : mode;  (** [Robust]: DELTA keys flow in band *)
  receiver_mode : mode option;
      (** overrides the receivers' mode; [None] runs the sender's *)
  ecn : bool;
      (** ECN marking at the routers' queues, and component scrubbing
          of marked copies at the SIGMA edge *)
}

val deployment : defence -> deployment
(** What a defence deploys around a session.  The only dispatch on
    {!defence} besides {!defence_str}; the matrix cells, the workload
    builder and the scorecard's headline all read it.  The tiers:

    - [Undefended]: Plain senders and receivers, no agent — plain
      IGMP.
    - [Delta_only]: Robust senders (keys flow in band) behind a legacy
      edge, with Plain receivers on IGMP — the paper's
      incremental-deployment counterfactual (Section 3.2.3), where
      DELTA alone protects nothing.
    - [Delta_sigma]: Robust end to end behind a SIGMA edge (the matrix
      and the workloads configure its agent with interface-specific
      keys, Section 4.2).
    - [Delta_sigma_ecn]: additionally ECN marking and component
      scrubbing. *)

val topology_str : topology_spec -> string
(** "dumbbell", "fat_tree", "star_lans" or "isp_random". *)

val defence_str : defence -> string
(** "plain", "delta", "delta+sigma" or "delta+sigma+ecn". *)

val kind : t -> string
(** "attack", "sweep", "responsiveness", "rtt", "convergence",
    "overhead", "partial", "adversary", "workload" or "study". *)

val seed : t -> int

val duration : t -> float

val scale_time : t -> factor:float -> t
(** Multiplies every temporal parameter (duration and the instants
    within it: attack onset, burst window, join times, metering
    warm-up) by [factor],
    preserving the scenario's shape.  Protocol timing (slot durations)
    is not touched.  Used for abbreviated "--quick" batches. *)

val to_json : t -> Json.t
(** The spec as a JSON object, [kind] field included; every parameter
    appears so a result file documents exactly what produced it. *)

val pp : Format.formatter -> t -> unit
(** One-line human summary, e.g. "attack seed=7 duration=200s
    attack_at=100s mode=robust". *)
