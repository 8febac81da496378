(** Forward error correction for SIGMA's special packets.

    The paper requires only that key distribution to edge routers
    "overcomes 50% packet loss" with a measured bit-expansion factor z
    of about 2.  Two rate-1/2 schemes are provided:

    - [Repetition n]: every chunk of tuples is sent [n] times (z = n);
      a chunk is lost only if all copies are lost.
    - [Xor_parity]: k data chunks plus one XOR parity chunk (z =
      (k+1)/k); any k of the k+1 packets reconstruct the slot.  The
      simulator models the code's MDS property rather than actual bit
      XOR: the parity packet carries the full tuple list for recovery
      while its wire size is that of one chunk.

    Decoding is per (session, slot): feed every received special packet
    to the decoder and read the tuple list once it completes. *)

type scheme = Repetition of int | Xor_parity

type coded = {
  chunk : int;  (** 0-based; [total_chunks] denotes the parity chunk *)
  total_chunks : int;
  copy : int;
  tuples : Tuple.t list;  (** decodable from this packet alone *)
  recovery : Tuple.t list;  (** full slot list, parity packets only *)
  wire_bytes : int;
}

val encode :
  width:int -> scheme -> max_per_packet:int -> Tuple.t list -> coded list
(** Splits tuples into chunks of at most [max_per_packet] and applies
    the scheme.  @raise Invalid_argument on a non-positive chunk size,
    [Repetition n] with [n < 1], or an empty tuple list. *)

val expansion : scheme -> total_chunks:int -> float
(** The bit-expansion factor z the scheme pays. *)

type decoder

val decoder_create : unit -> decoder

val feed : decoder -> coded -> Tuple.t list option
(** Returns the slot's full tuple list the first time decoding
    completes, [None] before then and on every packet after
    completion. *)

val complete : decoder -> bool

val duplicates : decoder -> int
(** Packets fed that added no information — repeat copies, repeat
    chunks, arrivals after completion: the redundancy the scheme paid
    for actually arriving.  [Router_agent] sums it over its decoders and
    reports it as the domain metric "sigma.fec.duplicates"; {!encode}
    counts coded packets into "sigma.fec.chunks" and reports the
    scheme's expansion factor as the "sigma.fec.expansion" gauge. *)
