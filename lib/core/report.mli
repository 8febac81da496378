(** Uniform presentation of experiment results.

    Every result has two renderings: the human-readable gnuplot-style
    blocks the figures plot, and a machine-readable JSON twin
    ({!result_json}) used by the {!Sink} writers — so this module, not
    the CLI, is the one place result fields are enumerated. *)

val heading : Format.formatter -> string -> unit

val result : Format.formatter -> Experiments.result -> unit
(** The human-readable rendering: labelled summary rows and
    gnuplot-style "# label" series blocks, by result kind. *)

val result_json : Experiments.result -> Json.t
(** A compact JSON object enumerating every field of the result, series
    included, for embedding in larger documents (the JSONL sink nests it
    next to the spec). *)

val summary : Experiments.result -> (string * float) list
(** The result's scalar metrics as (metric, value) rows — what the CSV
    sink writes. *)
