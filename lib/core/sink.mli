(** Pluggable result sinks for the experiment runner.

    A sink consumes one {!record} per completed run.  The runner always
    feeds records in registry order (independent of how many domains
    executed the batch), so file sinks produce byte-identical output
    for [--jobs 1] and [--jobs N]. *)

type record = {
  name : string;  (** registry name, e.g. "fig8a-n04" *)
  group : string;  (** figure the run belongs to, e.g. "fig8a" *)
  spec : Spec.t;
  result : Experiments.result;
  metrics : (string * Mcc_obs.Metrics.value) list;
      (** the run's metric snapshot, sorted by name ([] when the caller
          did not capture one) *)
  series : (string * (float * float) list) list;
      (** sampled time series, sorted by name ([] when the run was not
          sampled) *)
  profile : Mcc_obs.Profile.t option;
      (** event-loop profile; its wall-clock fields and minor-word
          count are the only nondeterministic content of a record *)
}

type t

val emit : t -> record -> unit
val close : t -> unit
(** Flushes and releases whatever the sink holds (a no-op for
    writer-backed sinks). *)

val map : (record -> record) -> t -> t
(** [map f sink] feeds [f record] to [sink]; closing the wrapper closes
    [sink].  Use to e.g. drop the (nondeterministic) profile when the
    output must be byte-stable across machines. *)

val jsonl : (string -> unit) -> t
(** One JSON object per record, newline-terminated:
    [{"name":..., "group":..., "kind":..., "spec":{...}, "result":{...},
    "metrics":{...}?, "profile":{...}?}] — the last two only when
    present, with the profile (and so every wall-clock field) last on
    the line.  The writer receives complete lines. *)

val csv : (string -> unit) -> t
(** Long-format CSV: a ["name,group,metric,value"] header (written
    immediately), then one row per scalar metric of each record
    ({!Report.summary}) and per counter/gauge of its metric snapshot
    (histograms and the profile are jsonl-only).  Fields are RFC-4180
    quoted when needed. *)

val jsonl_file : string -> t
(** [jsonl] writing to a file (truncated); [close] closes it. *)

val csv_file : string -> t
(** [csv] writing to a file (truncated); [close] closes it. *)

val series_jsonl : (string -> unit) -> t
(** One JSON object per sampled record, newline-terminated:
    [{"name":..., "group":..., "kind":..., "spec":{...},
    "series":{"<series name>":[[t, v], ...], ...}}].  Records with no
    series (unsampled runs) are skipped.  Fully deterministic, so
    [--jobs 1] and [--jobs N] files are byte-identical; this is the
    format [mcc report] consumes. *)

val pretty : Format.formatter -> t
(** Human-readable rendering: a heading per record followed by the
    {!Report.result} printer — what the CLI shows on stdout. *)
