(** Domain-local metrics registry: named counters, gauges and
    fixed-bucket histograms.

    Like the packet-UID registry, the table is domain-local
    ([Domain.DLS]), so the batch runner's [--jobs N] domains never
    contend on or interleave their counters: a simulation's metrics live
    exactly in the domain that ran it.  Within a domain, registration is
    get-or-create — every [counter "link.drops"] call returns the same
    handle — so components instrumented independently aggregate into one
    metric.

    The intended per-run protocol (what [Mcc_core.Runner] does):
    {!reset}, run the simulation, {!snapshot}.  Handles fetched before a
    reset keep mutating their detached records and stop being visible,
    so a stale component can never pollute the next run's snapshot. *)

type counter
type gauge
type histogram

(** An immutable snapshot of one metric. *)
type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float list;
      buckets : int list;  (** one per bound plus a final overflow bucket *)
      observations : int;
      sum : float;
    }

val counter : string -> counter
(** Get or create the named counter in this domain's registry.
    @raise Invalid_argument if the name is registered with another kind. *)

val incr : ?by:int -> counter -> unit

val incr_by : counter -> int -> unit
(** [incr ~by] without the optional-argument [Some] box: [\[@hot\]]
    call sites use this so per-packet accounting allocates nothing. *)

val counter_value : counter -> int

val tick : ?by:int -> string -> unit
(** [incr ?by (counter name)] — for cold paths where caching the handle
    is not worth the plumbing. *)

val gauge : string -> gauge
val set : gauge -> float -> unit

val set_gauge : string -> float -> unit
(** [set (gauge name) v]. *)

val exponential_bounds : base:float -> count:int -> float list
(** [count] power-of-two bucket bounds starting at [base]:
    [[base; 2*base; 4*base; ...]].  The standard shape for latency and
    queue-depth histograms, replacing hand-written bucket lists.
    @raise Invalid_argument if [base] is not finite and positive or
    [count < 1]. *)

val histogram : string -> bounds:float list -> histogram
(** Fixed upper bucket bounds, strictly ascending; an observation lands
    in the first bucket whose bound is [>= v], or the overflow bucket.
    @raise Invalid_argument on empty or non-ascending bounds, or a name
    registered with another kind. *)

val observe : histogram -> float -> unit

val snapshot : unit -> (string * value) list
(** Every metric of this domain's registry, sorted by name — the sort
    makes renderings deterministic and byte-comparable. *)

val reset : unit -> unit
(** Empties this domain's registry (see the per-run protocol above). *)

val values_json : (string * value) list -> Json.t
(** An object keyed by metric name, in list order. *)

val openmetrics_page : ?prefix:string -> ((string * string) list * (string * value) list) list -> string
(** An OpenMetrics text-format exposition of several labelled
    snapshots: per metric family a [# TYPE]/[# HELP] block, then each
    [(labels, values)] set's sample lines carrying its label set (e.g.
    [("run", "fig1")]), so each family appears exactly once, and a
    single trailing [# EOF].  Family order is first appearance across
    the sets.  Dotted registry names map to underscore-separated
    OpenMetrics names under [prefix] (default ["mcc_"]); counters get
    the [_total] suffix; histograms render cumulative [_bucket{le=..}]
    lines (upper bounds inclusive, final [+Inf]) plus [_sum]/[_count].
    Deterministic for given snapshots — snapshots are name-sorted. *)
