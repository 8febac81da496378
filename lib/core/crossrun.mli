(** Cross-run history and regression diffing over the {!Mcc_obs.Ledger}.

    This module owns the ledger's payload conventions and their
    consumers — building the entry a CLI invocation records, rendering
    the [mcc history] trend table (with {!Forensics.sparkline}s), and
    computing the [mcc diff] comparison of two entries.

    Payload convention (the deterministic body):
    {v
    {"config": {"command": "run", "jobs-independent flags",
                "entries": [{"name", "group", "spec": {...}}, ...]},
     "rows":   [{"name", "summary": {...}, "metrics": {...},
                 "profile": {"sched", "events", "queue_capacity",
                             "sched_stats"?}}, ...]}
    v}
    The digest covers ["config"] only, so two runs of the same selection
    share a digest whatever their outcome.  Everything wall-derived —
    recording time, wall seconds, events/s figures, profiler self
    times — goes in the entry's [wall] suffix:
    [{"recorded_unix_s", "wall_s", "events_per_sec",
    "figures": {name -> events/s}, "prof"?: {path -> self_s}}]. *)

val run_payload :
  command:string -> config:(string * Json.t) list -> Runner.row list -> Json.t
(** The deterministic payload for a batch: a ["config"] object
    ([{"command": command} @ config @ {"entries": ...}]) and one
    ["rows"] element per row — result summary ({!Report.summary}),
    metrics snapshot, and the deterministic profile fields ([sched],
    [events], [queue_capacity], [sched_stats]; never [wall_s]). *)

val run_wall : recorded:float -> Runner.row list -> (string * Json.t) list
(** The wall suffix for a batch: [recorded_unix_s], summed [wall_s],
    aggregate [events_per_sec], and a ["figures"] object mapping each
    row name to its own events/s. *)

val prof_wall : Mcc_obs.Prof.entry list -> (string * Json.t) list
(** An extra wall field for instrumented runs: [{"prof": {path ->
    self_s}}] over the self-profiler snapshot ([[]] when the snapshot is
    empty), for {!diff}'s self-time drift section. *)

val find_value : Mcc_obs.Ledger.entry -> key:string -> float option
(** The named numeric series value of an entry, searching in order: the
    wall ["figures"] object, the wall fields themselves ([wall_s],
    [events_per_sec], ...), then the payload rows — a ["summary"] or
    ["metrics"] member named [key], averaged across rows when several
    carry it.  Histogram-valued metrics are not findable. *)

val history_table :
  ?metric:string -> ?width:int -> Mcc_obs.Ledger.entry list -> string
(** The [mcc history] rendering: one line per entry (seq, kind, label,
    digest, recording time, headline figure) followed — when at least
    two entries carry the selected series — by a trend block with a
    {!Forensics.sparkline} ([width] characters, default 40).  [metric]
    selects the series through {!find_value}; the default is
    [events_per_sec].  Entries missing the series are skipped in the
    trend but still listed. *)

type delta = {
  key : string;
  va : float;  (** value in the first (older) entry *)
  vb : float;  (** value in the second (newer) entry *)
  pct : float option;  (** relative change, [None] when [va = 0] *)
}

type diff_report = {
  rendering : string;  (** the full [mcc diff] text *)
  drifted : int;  (** deterministic payload fields that differ *)
  regressions : delta list;
      (** figures that dropped by more than the threshold *)
}

val diff :
  ?threshold:float ->
  Mcc_obs.Ledger.entry ->
  Mcc_obs.Ledger.entry ->
  diff_report
(** Compares two entries, oldest first.  Sections: config digests
    (match or drift); deterministic payload drift (a field-by-field
    comparison of the flattened payloads — the count is [drifted] and
    same-config same-code runs report zero); figure deltas from the
    wall ["figures"] objects, flagging any figure that dropped by more
    than [threshold] (default 0.05) as a regression (figures are
    throughput rates, so only drops regress); wall/events-per-sec
    drift; and profiler self-time drift when both entries carry a wall
    ["prof"] table. *)
