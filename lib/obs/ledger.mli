(** Append-only cross-run ledger.

    One JSONL file ([ledger.jsonl] under {!default_dir}) accumulates an
    entry per recorded invocation — [mcc run], [mcc matrix], [mcc
    profile], [mcc workload run], [mcc lint] — so the repository's perf
    and metrics
    trajectory is visible {e across} runs, not just within one.  [mcc
    history] renders trends over it and [mcc diff] compares two entries.

    Determinism discipline (the same one {!Profile.to_json} follows):
    every field of an entry except the trailing [wall] object is a pure
    function of the recorded configuration, the simulation it produced,
    and the ledger's existing entries — so two appends of the same config
    at the same position render byte-identical deterministic prefixes,
    and [mcc diff] of two same-config entries reports zero drift.  The
    [wall] object (wall seconds, events/s, self-profiler times,
    recording timestamp — anything host-timing-derived)
    renders strictly last on the line. *)

type entry = {
  seq : int;
      (** 1 + the highest [seq] before it: the entry's 1-based position
          in the ledger file, unless a line before it was skipped *)
  kind : string;  (** "run", "matrix", "profile", "workload" or "lint" *)
  label : string;  (** human selector, e.g. "fig1" or "all" *)
  digest : string;  (** content hash of the config (see {!digest_of_json}) *)
  payload : Json.t;  (** deterministic body; by convention an object with a
                         ["config"] member the digest was computed over *)
  wall : (string * Json.t) list;
      (** nondeterministic suffix, rendered last *)
}

val default_dir : unit -> string
(** [$MCC_LEDGER] when set and non-empty, else [".mcc/ledger"]. *)

val file : dir:string -> string
(** The ledger file path, [dir ^ "/ledger.jsonl"]. *)

val digest_of_json : Json.t -> string
(** 64-bit FNV-1a over the compact rendering, as 16 lowercase hex
    characters.  A content hash of pure data (specs, matrix selections,
    workload files) — never of wall-clock material — so the same
    configuration always produces the same digest. *)

val entry_to_json : entry -> Json.t
(** [{"seq":..,"kind":..,"label":..,"digest":..,"payload":{..},
    "wall":{..}}] with [wall] last, so consumers can byte-compare lines
    truncated at ["wall"]. *)

val entry_of_json : Json.t -> (entry, string) result
(** Inverse of {!entry_to_json}; missing optional members default
    ([payload] to [Null], [wall] to []). *)

val append :
  dir:string ->
  kind:string ->
  label:string ->
  ?payload:Json.t ->
  ?wall:(string * Json.t) list ->
  unit ->
  (entry, string) result
(** Appends one entry, creating [dir] (and its parent) if needed.  The
    digest is computed over the payload's ["config"] member (or the
    whole payload if there is none) and [seq] follows the highest [seq]
    that {!load} reads, so the entry is deterministic given the config
    and the ledger's history.  A last line left without its newline is
    ended first, so the new entry gets a line of its own.  [Error]
    carries a filesystem or permission message; recording is
    telemetry, so callers typically warn and continue rather than fail
    the run. *)

val load : dir:string -> (entry list * string list, string) result
(** Every entry of the ledger in file (= seq) order, with one warning
    per line that is not a valid entry, such as a write cut short:
    ["FILE: line N: REASON"], N 1-based.  Such a line is skipped, and
    the lines after it still load.  [Ok ([], [])] when the ledger does
    not exist yet; [Error] only when the file cannot be read. *)
