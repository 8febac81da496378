(** Causal packet lineage — the forensic half of the third
    observability pillar (see {!Prof} for the time half).

    A lineage is a bounded record threaded through [lib/net] packets:
    the origin (session id, FLID level, birth sim-time) plus up to 16
    [(sim_time, component)] hops stamped as the packet crosses
    instrumented sites.  {!retire} folds a finished chain into a
    domain-local per-hop transition table (count / total / max
    latency), and {!note_case} keeps whole chains for interesting
    events (SIGMA key rejections) in a bounded case log — together
    these give forensics the end-to-end latency breakdown and the
    critical path from attack onset to containment.

    {b Zero cost when disabled}: every packet shares the domain's
    sentinel record, and all mutators are a length check away from a
    no-op — no allocation, no clock, no writes.  Enabled, records
    recycle through a bounded domain-local pool, so steady state
    allocates nothing either.

    State is per-domain ({!Domain.DLS}): enable, run and {!summary} on
    the same domain. *)

type t
(** A per-packet lineage record.  Mutable; ownership follows the
    packet (clone on copy, release with the packet's pool slot). *)

val enable : unit -> unit
(** Clears this domain's aggregates and starts collecting: {!fresh}
    returns live records from here on. *)

val disable : unit -> unit
(** Stops collecting.  Aggregates survive until {!enable}/{!reset} so
    a caller may still {!summary} after disabling. *)

val reset : unit -> unit

val none : unit -> t
(** This domain's sentinel — the record every packet carries while
    collection is off.  All mutators no-op on it. *)

val fresh : unit -> t
(** A blank record (pooled when available), or {!none} when
    collection is off. *)

val clone : t -> t
(** Deep copy, for packet fan-out ([Packet.copy]/[copy_pooled]).
    Cloning the sentinel returns the sentinel. *)

val release : t -> unit
(** Returns the record to the pool (bounded; drops beyond the cap).
    Call when the owning packet is released; the sentinel is never
    pooled. *)

val set_origin : t -> session:int -> level:int -> time:float -> unit
(** Stamps the originating session/level and birth sim-time. *)

val hop : t -> time:float -> string -> unit
(** Appends a [(sim_time, component)] hop; beyond the 16-slot buffer
    the hop is counted in {!lost} instead. *)

val retire : t -> time:float -> unit
(** Folds the chain into the domain transition table: one transition
    per consecutive hop pair (plus [origin ->] first and [-> retired]
    last).  Does not release the record. *)

val note_case : t -> kind:string -> time:float -> attrs:(string * Json.t) list -> unit
(** Snapshots the whole chain into the bounded case log (first 64
    kept, later ones counted as dropped) — used by the SIGMA agent to
    pin the first rejected key with its full causal path. *)

val hops : t -> (float * string) list

val lost : t -> int

val allocated : unit -> int
(** Records allocated (pool misses) since {!enable} — the pool-reuse
    test asserts this stops growing at steady state. *)

val pooled : unit -> int
(** Records currently sitting in the pool. *)

(** One aggregated hop transition. *)
type transition = {
  from_comp : string;
  to_comp : string;
  t_count : int;
  t_total_s : float;
  t_max_s : float;
}

(** One preserved causal chain. *)
type case = {
  c_kind : string;
  c_time : float;
  c_attrs : (string * Json.t) list;
  c_session : int;
  c_level : int;
  c_born : float;
  c_hops : (float * string) list;
}

type summary = {
  s_transitions : transition list;  (** sorted by (from, to) — deterministic *)
  s_cases : case list;  (** oldest first *)
  s_retired : int;
  s_allocated : int;
  s_pool_hits : int;
  s_cases_dropped : int;
}

val summary : unit -> summary
val to_json : summary -> Json.t
