(** Structured event tracing: a domain-wide stream of
    [{sim_time; component; event; attrs}] records.

    Components call {!emit} unconditionally; with no sink installed the
    call is a cheap no-op (hot paths may additionally guard attribute
    construction behind {!enabled}).  Sinks filter by severity and by
    component: {!install} hands each record to a callback, and {!jsonl}
    writes the full stream [mcc trace] prints.

    Sinks are domain-local — a sink observes exactly the simulations its
    own domain runs — which is what keeps [--jobs N] batch runs
    race-free without locks. *)

type level = Debug | Info | Warn

val level_name : level -> string

type record = {
  sim_time : float;  (** simulated seconds, not wall clock *)
  level : level;
  component : string;  (** dotted source name, e.g. "sigma.router" *)
  event : string;  (** e.g. "drop", "grace_admit" *)
  attrs : (string * Json.t) list;
}

type sink

val enabled : unit -> bool
(** Any sink installed in this domain?  Hot paths check this before
    building attribute closures. *)

val emit :
  ?level:level ->
  sim_time:float ->
  component:string ->
  event:string ->
  (unit -> (string * Json.t) list) ->
  unit
(** Deliver a record to every interested sink (default level [Info]).
    The attribute thunk runs only if at least one sink wants the
    record. *)

val emit_at :
  level:level ->
  sim_time:float ->
  component:string ->
  event:string ->
  (unit -> (string * Json.t) list) ->
  unit
(** [emit] with the level required rather than optional: no
    [Some level] box per call, so [\[@hot\]] emitters use this form. *)

val install :
  ?min_level:level -> ?components:string list -> (record -> unit) -> sink
(** Install a sink in this domain.  [min_level] defaults to [Debug]
    (everything); [components] restricts to the named components and
    their dotted descendants ("sigma" matches "sigma.router"). *)

val remove : sink -> unit
(** Uninstall (idempotent). *)

val component_matches : filter:string -> string -> bool
(** Dotted-prefix matching on component boundaries: filter ["sigma"]
    matches ["sigma"] and ["sigma.router"], never ["sigmax"] or
    ["sigmax.fec"].  A trailing dot on the filter is ignored, so
    ["sigma."] behaves like ["sigma"]. *)

val check_component : string -> (unit, string) result
(** Validate one component filter string (CLI [--filter] values): empty
    or whitespace strings and empty dotted segments (["sigma..router"])
    are rejected with a descriptive error instead of silently matching
    nothing.  A single trailing dot is accepted as prefix notation. *)

val check_components : string list -> (unit, string) result
(** First error of {!check_component} over the list, or [Ok ()]. *)

val record_json : record -> Json.t
(** [{"t":..., "level":..., "component":..., "event":..., "attrs":{...}}];
    ["attrs"] is omitted when empty. *)

val jsonl : ?min_level:level -> ?components:string list -> (string -> unit) -> sink
(** A sink writing one {!record_json} line per record. *)
