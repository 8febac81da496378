(** Small descriptive-statistics helpers used by experiment reports. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val jain_fairness : float list -> float
(** Jain's fairness index (sum x)^2 / (n * sum x^2); 1.0 for a perfectly
    equal allocation, approaching 1/n under maximal unfairness.
    Returns 1.0 on the empty list or an all-zero allocation. *)
