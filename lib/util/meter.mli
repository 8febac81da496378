(** Throughput meter: counts delivered bytes and renders them as a
    throughput time series in Kbps, the unit of every figure in the
    paper. *)

type t

val create : unit -> t
(** A meter sampling throughput in 1-second bins. *)

val record : t -> time:float -> bytes:int -> unit
(** Account [bytes] delivered at [time].  Times must be non-decreasing. *)

val total_bytes : t -> int

val throughput_kbps : t -> (float * float) list
(** Per-bin throughput samples [(bin_end_time, kbps)].  Bins with no
    traffic report 0. *)

val smoothed_kbps : t -> window:float -> (float * float) list
(** Per-bin throughput averaged over a sliding window of [window]
    seconds, matching the smoothing of the paper's plots. *)

val mean_kbps : t -> lo:float -> hi:float -> float
(** Average throughput over [lo, hi) in Kbps; bins partially covered by
    the window contribute proportionally to the overlap. *)
