(** Minimal JSON emission (no parsing, no external dependency): just
    enough structure for the machine-readable experiment sinks and the
    telemetry layer.  Values render deterministically — same tree, same
    bytes — which is what lets the runner's serial and parallel outputs
    be byte-compared.

    Historically this module lived in [Mcc_core]; it moved here so the
    low-level libraries can render metrics and trace records without
    depending on the experiment layer.  [Mcc_core.Json] re-exports it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite floats render as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering, no whitespace. *)

val escape : string -> string
(** The body of a JSON string literal for the argument (no surrounding
    quotes): backslash, quote, and control characters escaped, so
    arbitrary strings — trace attributes included — always produce
    valid JSON. *)

val of_series : (float * float) list -> t
(** A series as a list of [[x, y]] pairs. *)

val of_string : string -> (t, string) result
(** Parse one JSON document (the inverse of {!to_string}): standard
    JSON, no extensions.  Numbers without ['.'] or an exponent that fit
    in [int] parse as [Int], all others as [Float].  [Error] carries a
    byte offset plus a description.  This is what lets [mcc report] and
    [mcc diff] read back what the sinks and the ledger wrote without an
    external JSON dependency. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing fields or non-objects. *)

val to_float_opt : t -> float option
(** [Float] or [Int] as a float; [None] otherwise. *)

val to_string_opt : t -> string option

val to_series : t -> (float * float) list option
(** Inverse of {!of_series}: a list of [[x, y]] number pairs; [None] if
    any element has another shape. *)
