(** [registry-exhaustive]: no catch-all over the protocol registry.

    {!check_catch_all} flags catch-all patterns in multi-case matches
    whose patterns have the registry type [Spec.protocol] (defined in
    [lib/core/spec.ml]).  [Spec.impl] is the one dispatch on that type,
    so an exhaustive match there is what makes a new protocol fail to
    compile until it has a module. *)

val check_catch_all :
  path:string -> Typedtree.structure -> Kernel.finding list
