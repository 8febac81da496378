(** Receiver-churn models as pure membership plans.

    A plan maps a {!Mcc_core.Spec.churn_spec} to a list of intervals —
    (pool host index, join time, optional leave time) — computed
    entirely up front.  The builder realises each interval as a fresh
    receiver instance on the named host, so a rejoin is a restart, and
    the whole membership timeline is a deterministic function of the
    spec and the seed stream. *)

type interval = {
  host : int;  (** index into the topology's receiver pool *)
  at : float;  (** join time, seconds *)
  until : float option;  (** leave time; [None] = stays to the end *)
}

val arrivals : Mcc_core.Spec.churn_spec -> int
(** Hosts the plan needs beyond the steady population: a flash crowd's
    arrivals (which land on their own hosts), 0 otherwise. *)

val hosts_needed : spec:Mcc_core.Spec.churn_spec -> receivers:int -> int
(** Pool size the plan requires: [receivers + arrivals spec]. *)

val plan :
  Mcc_util.Prng.t ->
  spec:Mcc_core.Spec.churn_spec ->
  receivers:int ->
  duration:float ->
  interval list
(** The membership timeline.  [No_churn]: everyone joins at 0 and
    stays.  [Flash_crowd]: [arrivals] extra receivers join around [at]
    (per-receiver jitter of up to 1 s from [prng]) and, when
    [leave_after > 0], leave that long after joining.  [Diurnal]: the
    first [fraction] of the population is subscribed only during the
    first half of every [period].  [Regional_outage]: the first
    [fraction] drops at [at] and rejoins at [restore_at]. *)
