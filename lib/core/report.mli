(** Uniform presentation of experiment results.

    Every result has two renderings: the human-readable gnuplot-style
    blocks the figures plot, and a machine-readable JSON twin
    ({!result_json}) used by the {!Sink} writers — so this module, not
    the CLI, is the one place result fields are enumerated. *)

type series = (float * float) list

val series :
  Format.formatter -> label:string -> (float * float) list -> unit
(** A "# label" header followed by "x y" rows and a blank line. *)

val row : Format.formatter -> string -> (string * float) list -> unit
(** One labelled summary row of name/value pairs. *)

val heading : Format.formatter -> string -> unit

(** {1 Per-experiment printers} *)

val attack : Format.formatter -> Experiments.attack_result -> unit
val sweep : Format.formatter -> Experiments.sweep_point list -> unit
val responsiveness : Format.formatter -> Experiments.responsiveness_result -> unit
val rtt : Format.formatter -> (float * float) list -> unit
val convergence : Format.formatter -> Experiments.series list -> unit
val overhead : Format.formatter -> x_label:string -> Experiments.overhead_point list -> unit
val partial : Format.formatter -> Experiments.partial_result -> unit
val adversary : Format.formatter -> Experiments.adversary_result -> unit
val workload : Format.formatter -> Experiments.workload_result -> unit

val result : Format.formatter -> Experiments.result -> unit
(** Dispatches to the matching printer above. *)

val result_json : Experiments.result -> Json.t
(** A compact JSON object enumerating every field of the result, series
    included, for embedding in larger documents (the JSONL sink nests it
    next to the spec). *)

val summary : Experiments.result -> (string * float) list
(** The result's scalar metrics as (metric, value) rows — what the CSV
    sink writes and what [row] prints. *)
