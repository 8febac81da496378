(** Invariant linter: a static-analysis pass over the repository's own
    sources enforcing the determinism and domain-safety rules the
    reproduction's guarantees rest on (byte-identical sink output for
    any [--jobs], attack/defence matrices on the simulated clock).

    The linter runs in two stages.  The {e syntactic} stage parses each
    [.ml] with the compiler's own parser (compiler-libs) and walks the
    [Parsetree]; its rules need no build context.  The {e typed} stage
    resolves each file's [.cmt] (dune's [-bin-annot] output, written by
    every build) and walks the [Typedtree] for the rules that need type
    information.  A file whose [.cmt] cannot be found keeps its
    syntactic coverage and is recorded in [cmts_missing] — the typed
    stage reports degradation, it never fails the run by itself.

    {2 Syntactic rules}

    - [wall-clock]: references to [Unix.gettimeofday], [Unix.time],
      [Sys.time], or a [Unix.sleep]/[sleepf] pacing wait.  Simulation
      code must read the simulated clock only; the sole sanctioned
      host-clock site is {!Mcc_obs.Profile.with_wall_clock}.
    - [ambient-randomness]: [Random.self_init] and any use of the
      global [Random] state ([Random.int], [Random.float], ...).
      Only seeded, explicitly threaded state ([Mcc_util.Prng],
      [Random.State]) keeps runs reproducible.
    - [shared-mutable-toplevel]: a module-level binding that creates
      mutable state outside a function body ([ref], [Hashtbl.create],
      [Buffer.create], [Queue.create], [Stack.create], [Array.make],
      [Array.init], [Bytes.create], array literals).  Such state is
      shared by every domain the runner spawns; use the domain-local
      registries ([Domain.DLS.new_key (fun () -> ...)] — the creation
      then sits under a function and is not flagged) or [Atomic].
      Bindings that bind nothing ([let () = ...], [let _ = ...]) are
      exempt: state created there is initialisation scratch that dies
      with the binding.
    - [float-poly-compare]: polymorphic [=] / [<>] / [==] / [!=] with a
      float-shaped operand (float literal, [float_of_int], a [+.]-style
      operator application, or a [: float] constraint), and any
      reference to bare polymorphic [compare].  Use [Float.equal],
      [Float.compare], [String.compare], ... so comparisons stay
      monomorphic and NaN handling is explicit.
    - [mli-coverage]: a [.ml] file with no sibling [.mli].
    - [prof-span]: a self-profiler span site ([Prof.span],
      [Prof.with_span], or the [Mcc_obs.Prof]-qualified spellings)
      outside [lib/], or in a [lib/] module without a sibling [.mli].
    - [gc-stats]: a GC statistics read ([Gc.quick_stat], [Gc.stat],
      [Gc.minor_words], [Gc.major_words], [Gc.counters],
      [Gc.allocated_bytes]) outside [lib/obs].  GC figures are live
      telemetry only; routing them through [Mcc_obs] keeps them out of
      sinks and ledger payloads, whose bytes must not vary across
      machines.

    {2 Typed rules}

    - [domain-escape]: a mutable value ([ref], [array], [bytes],
      [Hashtbl.t]/[Buffer.t]/[Queue.t]/[Stack.t], or a record declared
      with mutable fields in the same compilation unit) captured by a
      closure passed to [Domain.spawn] or [Domain.DLS.new_key].
      [Atomic.t] is exempt.  A spawn argument that is neither a
      function literal nor a locally let-bound function is flagged as
      opaque.
    - [hot-alloc]: an allocating expression inside a function whose
      binding carries the [[@hot]] attribute — closure, tuple, record,
      array, non-constant constructor, polymorphic variant or lazy
      construction; partial application; calls to known allocating
      stdlib entry points.  The engine's hot loops ([Sim.step], the
      scheduler backends, [Link], the packet pool) declare themselves
      [[@hot]] and are allocation-free by contract.
    - [hot-poly-compare]: a Stdlib comparison ([=], [<>], [<], [>],
      [<=], [>=], [compare], [min], [max]) inside a [[@hot]] function
      whose operand type the compiler does not specialise, so the call
      goes to [caml_compare].  The operand type is resolved the way
      the compiler resolves it, through abbreviations and across
      units, from the environment the [.cmt] records.  Exempt:
      immediates (int, char, bool, constant-only variants); float,
      string, bytes, int32, int64 and nativeint (so every literal
      operand); and [=]/[<>] with a constant-constructor operand, a
      pointer compare.  [min] and [max] are polymorphic functions, not
      primitives, so they are flagged whatever their operands: use
      [Int.min], [Float.min] or an explicit test.  A sift helper whose
      arrays are left polymorphic is the case this catches.
    - [registry-exhaustive]: a catch-all pattern in a multi-case match
      over the {!Mcc_core.Spec.protocol} registry type.  [Spec.impl] is
      the one dispatch on that type, so with every constructor named
      there a new protocol fails to compile until it has a module.

    {2 Suppression}

    A finding is suppressed by an in-source pragma comment

    {[ (* lint: allow <rule-id> — justification *) ]}

    placed on the same line as the finding or on the line directly
    above it ([mli-coverage] findings attach to line 1, so a pragma on
    the file's first line suppresses them), or
    by an entry in an allowlist file: one [<rule-id> <path>] pair per
    line, [#] comments, where a path ending in [/] matches as a prefix.
    Paths are normalised by dropping [.] and [..] segments before
    matching.  Typed findings go through exactly the same filters. *)

type rule = Kernel.rule =
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
(** The rules that need [.cmt] type information: [domain-escape],
    [hot-alloc], [hot-poly-compare], [registry-exhaustive]. *)

val rule_id : rule -> string
(** The stable kebab-case identifier used in pragmas, allowlists, CLI
    flags and the JSON report. *)

val rule_of_id : string -> rule option
val rule_doc : rule -> string

type finding = Kernel.finding = {
  rule : rule;
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler diagnostics *)
  message : string;
}

type allow_entry = Kernel.allow_entry = {
  allow_rule : rule;
  allow_path : string;  (** exact path, or a prefix when ending in [/] *)
}

type config = Kernel.config = {
  rules : rule list;  (** enabled rules *)
  allowlist : allow_entry list;
  build_dir : string option;
      (** where the typed stage looks for [.cmt] files; [None]
          autodetects ([_build/default] when present, else the current
          directory) *)
}

val default_config : config
(** Every rule enabled, empty allowlist, autodetected build dir. *)

val parse_allowlist : ?file:string -> string -> (allow_entry list, string) result
(** Parse allowlist text; [file] names the source in error messages. *)

val load_allowlist : string -> (allow_entry list, string) result

type report = Kernel.report = {
  findings : finding list;  (** sorted by file, line, column, rule *)
  errors : (string * string) list;  (** (file, message): unparseable inputs *)
  files_checked : int;
  cmts_loaded : int;  (** files the typed stage resolved a [.cmt] for *)
  cmts_missing : (string * string) list;
      (** (file, reason): typed stage degraded to syntactic-only *)
}

val check_file : config -> string -> (finding list, string) result
(** Lint one [.ml] file with the {e syntactic} stage only ([Error] on
    I/O or syntax errors).  All enabled syntactic rules run, including
    [mli-coverage] against the sibling path; typed rules need the
    [.cmt] context of {!run}. *)

val run : config -> string list -> report
(** Lint every [.ml] file under the given files and directories
    (recursing, skipping dot- and [_]-prefixed directories; traversal
    order is sorted, so reports are deterministic), through both
    stages.  A path that does not exist or fails to parse lands in
    [errors]; a file without a resolvable [.cmt] lands in
    [cmts_missing]. *)

val exit_code : report -> int
(** 0 clean, 1 findings, 2 errors (errors win over findings).
    [cmts_missing] alone never changes the exit code. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line:col: [rule-id] message] — the compiler-style location
    prefix editors already know how to jump to. *)

val report_to_json : report -> Mcc_obs.Json.t
(** Machine-readable report: tool name, enabled rules, file count, the
    typed-stage coverage block ([cmts_loaded], [cmts_missing]),
    findings (rule/file/line/col/message) and errors. *)
