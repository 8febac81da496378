(** The paper's experiments (Figures 1, 7, 8a–8h, 9a, 9b, the
    Section 3.2.3 deployment study, and the studies beyond the figures)
    as pure functions of {!Spec} parameter records.

    Each [run_*] function builds the paper's Section 5.1 setting from
    its record, runs it to the record's horizon, and returns the
    series/rows the figure plots.  [run] dispatches a {!Spec.t} to the
    matching experiment and wraps the outcome in {!result}; it is the
    single entry point the {!Runner} executes — one call, one isolated
    simulation, no shared mutable state between calls.

    Build specs from the [Spec.default_*] records with update syntax;
    the pre-spec optional-argument wrappers were removed after their
    one-release deprecation window. *)

type series = (float * float) list

(** {1 Figures 1 and 7: inflated subscription, plain and protected} *)

type attack_result = {
  f1 : series;  (** the (mis)behaving receiver, smoothed Kbps over time *)
  f2 : series;
  t1 : series;
  t2 : series;
  f1_before : float;  (** mean Kbps in the second half before the attack *)
  f1_after : float;  (** mean Kbps over the attack period *)
  f2_after : float;
  t1_after : float;
  t2_after : float;
}

val run_attack : Spec.attack_params -> attack_result
(** Two multicast + two TCP sessions over a 1 Mbps bottleneck; receiver
    F1 inflates its subscription from [attack_at] on. *)

(** {1 Figures 8a-8d: throughput vs number of sessions} *)

type sweep_point = {
  sessions : int;
  individual_kbps : float list;  (** one entry per multicast receiver *)
  average_kbps : float;
}

val run_sweep : Spec.sweep_params -> sweep_point
(** One point of the figure's sweep: [sessions] concurrent multicast
    sessions on a proportionally provisioned bottleneck;
    [cross_traffic] adds one TCP flow per session plus an on-off CBR at
    10% of the bottleneck (5 s periods) — Figure 8d. *)

(** {1 Figure 8e: responsiveness} *)

type responsiveness_result = {
  multicast : series;  (** smoothed Kbps *)
  burst_start : float;
  burst_stop : float;
  before_kbps : float;
  during_kbps : float;
  after_kbps : float;
}

val run_responsiveness : Spec.responsiveness_params -> responsiveness_result
(** One multicast session and an on-off CBR burst active during
    [burst_start, burst_stop] over a 1 Mbps bottleneck. *)

(** {1 Figure 8f: heterogeneous round-trip times} *)

val run_rtt : Spec.rtt_params -> (float * float) list
(** One session, [receivers] receivers whose RTTs spread uniformly over
    [30 ms, 220 ms] (bottleneck delay 5 ms).  Returns (rtt_ms,
    average Kbps) rows. *)

(** {1 Figures 8g and 8h: subscription convergence} *)

val run_convergence : Spec.convergence_params -> series list
(** One 250 Kbps-bottleneck session; receivers join at [join_times].
    Returns one smoothed throughput series per receiver. *)

(** {1 Incremental deployment (paper Section 3.2.3)} *)

type partial_result = {
  protected_attacker_kbps : float;
      (** inflating receiver behind a SIGMA edge router *)
  unprotected_attacker_kbps : float;
      (** the same attack behind a legacy IGMP router *)
  honest_kbps : float;  (** a well-behaved receiver behind the SIGMA edge *)
}

val run_partial : Spec.partial_params -> partial_result
(** Three FLID-DS sessions share a 750 kbps bottleneck; two receivers
    inflate at [attack_at], one behind each kind of edge router.  Even a
    partial SIGMA deployment protects its own receivers (the protected
    attacker stays near its fair share) while the legacy edge lets the
    attack through. *)

(** {1 Figures 9a and 9b: communication overhead} *)

type overhead_point = {
  x : float;  (** number of groups (9a) or slot duration (9b) *)
  delta_analytic : float;  (** percent *)
  sigma_analytic : float;
  delta_measured : float;
  sigma_measured : float;
}

val run_overhead : Spec.overhead_params -> overhead_point
(** FLID-DS session at cumulative rate 4 Mbps, 500-byte packets, 16-bit
    keys; the spec's [axis] picks which parameter lands in [x]. *)

(** {1 Adversary cells (defence-evaluation matrix)} *)

type adversary_result = {
  honest_before_kbps : float;  (** honest receiver before the attack *)
  honest_after_kbps : float;  (** honest receiver once the attack runs *)
  honest_loss_pct : float;  (** 100 * (1 - after / before), clamped at 0 *)
  attacker_kbps : float;  (** adversary goodput during the attack *)
  attacker_gain : float;  (** [attacker_kbps] / fair share *)
  containment_s : float option;
      (** seconds from attack start until the adversary's goodput drops
          to (and stays within) 1.5 fair shares; [None] = never
          contained within the horizon *)
  tcp_kbps : float;  (** the competing TCP flow during the attack *)
  keys_rejected : int;  (** edge-router stats; 0 without an agent *)
  lockouts : int;
  grace_admissions : int;
}
(** Per-cell damage metrics of the attack × protocol × defence matrix. *)

val run_adversary : Spec.adversary_params -> adversary_result
(** One matrix cell.  Implemented by [Mcc_attack.Matrix] (which depends
    on this library and needs the strategy library); raises [Failure]
    if the [mcc_attack] library is not linked into the executable. *)

val set_adversary_impl : (Spec.adversary_params -> adversary_result) -> unit
(** Registers the cell runner; called by [Mcc_attack.Matrix] at module
    initialisation.  Not for general use. *)

(** {1 Declarative workloads} *)

type workload_result = {
  w_nodes : int;  (** nodes in the generated topology *)
  w_links : int;
  w_receivers : int;  (** receiver instances started (churn included) *)
  w_mean_goodput_kbps : float;
      (** mean over receivers of each receiver's goodput over its own
          active window (post-warmup) *)
  w_min_goodput_kbps : float;
  w_max_goodput_kbps : float;
  w_cross_kbps : float;  (** background traffic delivered, all flows *)
  w_attacker_kbps : float;  (** 0 without an attack *)
  w_drops : int;  (** queue drops summed over every link *)
  w_marks : int;  (** ECN marks summed over every link *)
  w_keys_rejected : int;  (** edge-agent stats; 0 without SIGMA *)
  w_lockouts : int;
}
(** Aggregate outcome of one declarative workload run. *)

val run_workload : Spec.workload_params -> workload_result
(** One workload: generated topology, one session, churn, traffic, and
    optionally an attacker.  Implemented by [Mcc_workload.Build] (which
    depends on this library and the topology generators); raises
    [Failure] if the [mcc_workload] library is not linked into the
    executable. *)

val set_workload_impl : (Spec.workload_params -> workload_result) -> unit
(** Registers the workload builder; called by [Mcc_workload.Build] at
    module initialisation.  Not for general use. *)

(** {1 Spec dispatch} *)

type result =
  | Attack of attack_result
  | Sweep_point of sweep_point
  | Responsiveness of responsiveness_result
  | Rtt of (float * float) list
  | Convergence of series list
  | Overhead of overhead_point
  | Partial of partial_result
  | Adversary of adversary_result
  | Workload of workload_result
  | Study of (string * float) list
      (** one point of an extension or ablation study, as named numbers
          in a fixed order; throughput ([*_kbps]) is metered over
          [[warmup, duration]], except for {!Spec.Slot_length}, which
          meters before, during and after its burst in Figure 8e's
          windows *)

val run : Spec.t -> result
(** Runs the experiment a spec describes.  Deterministic: the result is
    a pure function of the spec.  Each call owns its simulator and PRNG
    state, so concurrent calls from different domains do not interact. *)
