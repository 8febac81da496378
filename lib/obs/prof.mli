(** Domain-local hierarchical self-profiler (the third observability
    pillar, alongside {!Metrics} and {!Tracer}).

    Scoped spans attribute wall time, call counts and minor-heap
    allocation to a component tree keyed by the span call path: the
    same name under two different parents is two nodes, so recursion
    and shared helpers never double-count.  Wall time is read through
    {!Profile.now}, the sanctioned host-clock site.

    {b Zero cost when disabled}: {!span} reads one domain-local flag
    and returns {!disabled}; {!finish} on that token is one integer
    compare.  No closure is built and no clock is read, so span sites
    may sit on simulator hot paths; the disabled overhead is meant to
    stay under 2%, a claim that awaits a direct measurement against a
    build with the span sites removed.  Span sites are
    confined to [lib/] modules with interfaces — the lint [prof-span]
    rule enforces this.

    State is per-domain ({!Domain.DLS}): a batch worker's tree must be
    snapshotted inside the worker ([Mcc_core.Runner] does). *)

val enabled : unit -> bool

val enable : unit -> unit
(** Clears this domain's tree and starts collecting. *)

val disable : unit -> unit
(** Stops collecting.  The tree survives until {!enable}/{!reset} so a
    caller may still {!snapshot} after disabling. *)

val reset : unit -> unit

type span
(** An open region token.  Not thread-values: open and finish on the
    same domain, well-nested (the engine loop and [with_span] both
    guarantee this). *)

val disabled : span
(** The token {!span} returns when profiling is off. *)

val span : string -> span
(** Opens a region named [name] under the innermost open span (or at
    the root).  Returns {!disabled} when profiling is off. *)

val finish : span -> unit
(** Closes the region.  Also closes any inner spans still open above
    it (exception paths), charging them to their own nodes. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] brackets [f] in a span, finishing on exceptions
    too.  When profiling is off this is exactly [f ()] — prefer the
    explicit {!span}/{!finish} pair on hot paths where even the
    closure argument's allocation matters. *)

(** One component node of a snapshot. *)
type entry = {
  path : string list;  (** root-first span path, e.g. [["run"; "engine"; "link"]] *)
  depth : int;  (** [List.length path - 1] *)
  count : int;  (** times the span was opened *)
  total_s : float;  (** wall seconds inside the span, children included *)
  self_s : float;  (** wall seconds minus direct children's totals *)
  alloc_w : float;  (** minor words allocated, children excluded *)
}

val snapshot : unit -> entry list
(** Depth-first preorder, children in creation order — deterministic
    for a deterministic run (the times, of course, are not). *)

val root_total : entry list -> float
(** Sum of the root spans' [total_s]. *)

val self_total : entry list -> float
(** Sum of every node's [self_s]; equals {!root_total} by
    construction, so coverage against an externally measured wall time
    is [self_total / wall_s]. *)

val to_markdown : ?wall_s:float -> entry list -> string
(** Markdown self-time table (count, total, self, self-%, allocation);
    with [wall_s], percentages are against it and a coverage line is
    appended. *)

val folded : entry list -> string
(** Folded-stack lines ["a;b;c <self-microseconds>"], the input format
    of [flamegraph.pl], inferno and speedscope. *)

val to_json : entry list -> Json.t
