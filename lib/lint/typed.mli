(** Stage two of the linter: the [.cmt]-backed rules
    ([domain-escape], [hot-alloc], [hot-poly-compare],
    [registry-exhaustive]).

    Degrades gracefully: a file whose [.cmt] cannot be resolved is
    reported in [t_missing] rather than failing the run.  Findings here
    are raw — {!Lint.run} applies pragma and allowlist suppression. *)

type result = {
  t_findings : Kernel.finding list;  (** unfiltered, unsorted *)
  t_loaded : int;  (** files whose [.cmt] resolved *)
  t_missing : (string * string) list;
      (** (file, reason) for unresolved [.cmt]s, in input order *)
}

val run : Kernel.config -> string list -> result
(** [run config files] runs the enabled typed rules over every [.ml]
    in [files]. *)
