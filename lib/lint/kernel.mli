(** Shared vocabulary of both lint stages: the rule set, findings,
    configuration, and the suppression machinery (pragma comments and
    the allowlist).  {!Lint} re-exports everything here, so external
    consumers never need this module directly — it exists so the typed
    stage's rule modules ({!Escape}, {!Hot_alloc}, {!Registry},
    {!Typed}) and the syntactic pass can share types without a
    dependency cycle. *)

type rule =
  | Wall_clock
  | Ambient_randomness
  | Shared_mutable_toplevel
  | Float_poly_compare
  | Mli_coverage
  | Prof_span
  | Gc_stats
  | Domain_escape
  | Hot_alloc
  | Hot_poly_compare
  | Registry_exhaustive

val all_rules : rule list

val typed_rules : rule list
(** The rules that need [.cmt] type information:
    [domain-escape], [hot-alloc], [hot-poly-compare],
    [registry-exhaustive]. *)

val rule_id : rule -> string
val rule_of_id : string -> rule option
val rule_doc : rule -> string

type finding = {
  rule : rule;
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler diagnostics *)
  message : string;
}

type allow_entry = {
  allow_rule : rule;
  allow_path : string;  (** exact path, or a prefix when ending in [/] *)
}

type config = {
  rules : rule list;  (** enabled rules *)
  allowlist : allow_entry list;
  build_dir : string option;
      (** where to look for [.cmt] files; [None] autodetects
          ([_build/default] when present, else the current directory) *)
}

val default_config : config

type report = {
  findings : finding list;  (** sorted by file, line, column, rule *)
  errors : (string * string) list;  (** (file, message): unparseable inputs *)
  files_checked : int;
  cmts_loaded : int;  (** files the typed stage found a [.cmt] for *)
  cmts_missing : (string * string) list;
      (** (file, reason): typed stage degraded to syntactic-only *)
}

val normalize_path : string -> string
(** Drop [.], [..] and empty segments, so the same file reached via
    different working directories compares equal. *)

val has_prefix : prefix:string -> string -> bool
val allow_matches : allow_entry -> string -> bool

val parse_allowlist :
  ?file:string -> string -> (allow_entry list, string) result

val load_allowlist : string -> (allow_entry list, string) result

val scan_pragmas : string -> (int * rule) list
(** All [(line, rule)] pragma-comment positions in a source text. *)

val pragma_suppresses : (int * rule) list -> finding -> bool
(** A pragma suppresses a finding of its rule on the same or the
    directly preceding line. *)

val finding_order : finding -> finding -> int
