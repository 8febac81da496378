(** Append-only time series of (time, value) samples: the level
    trajectories and sampled telemetry the paper's figures plot. *)

type t

val create : unit -> t

val add : t -> time:float -> value:float -> unit
(** Samples must be appended in non-decreasing time order.
    @raise Invalid_argument otherwise. *)

val length : t -> int

val to_list : t -> (float * float) list
(** Samples in insertion order. *)
