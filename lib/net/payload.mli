(** Extensible packet payloads.

    The network layer forwards packets without looking inside them;
    each protocol library (transport, mcast, sigma) extends this type
    with its own segments.  [Raw] is a size-only filler used by plain
    CBR sources and tests. *)

type t = ..

type t += Raw
