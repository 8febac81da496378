(** Lazy index from source paths to the [Typedtree] inside the [.cmt]
    files dune already produces ([-bin-annot] is on by default).

    The index walks the build directory once (on the first lookup),
    buckets candidates by the module name encoded in each [.cmt]
    basename, and verifies a candidate by the source path recorded
    inside it — so same-named modules in different libraries cannot be
    confused.  Lookups and reads are cached; a missing or unreadable
    [.cmt] is an [Error] with a reason, never an exception, which is
    what lets the typed lint stage degrade gracefully. *)

type t

val create : ?build_dir:string -> unit -> t
(** [build_dir] defaults to {!default_build_dir}[ ()]. *)

val default_build_dir : unit -> string
(** [_build/default] when it exists (linting from the repository root),
    else [.] (linting from inside the build tree, where the object
    directories are siblings of the sources). *)

val build_dir : t -> string

type unit_info = {
  structure : Typedtree.structure;
  load_path : string list;
      (** the compiler's [-I] path for the unit, relative entries
          resolved against the build directory: what a rule needs to
          rebuild a typing environment ({!Envaux}) from the tree's
          environment summaries *)
}

val lookup : t -> string -> (unit_info, string) result
(** [lookup t source] finds the typed tree of [source] ([.ml]).  The
    recorded source path must equal the (normalised) request, or end
    with it at a [/] boundary — covering lookups made from a
    subdirectory of the workspace. *)

val loaded : t -> int
(** Distinct sources successfully resolved so far. *)
