(** [hot-alloc] and [hot-poly-compare]: two analyses over functions
    marked [[@hot]], sharing one walk.

    [hot-alloc]: a binding carrying the [[@hot]] attribute declares its
    body allocation-free; this rule walks the typed body and flags
    closure, tuple, record, array, constructor, polymorphic-variant and
    lazy construction, partial applications (detected by the
    application's result type being an arrow, which survives
    optional-argument erasure), and calls to known allocating stdlib
    entry points.  Nested closure bodies and [assert] payloads are not
    walked.  Known blind spots: float boxing and allocation hidden
    inside callees off the known list.

    [hot-poly-compare]: a Stdlib comparison ([=], [<>], [<], [>], [<=],
    [>=], [compare], [min], [max]) whose operand type the compiler does
    not specialise, so the call goes to [caml_compare].  Immediates
    (int, char, bool, constant-only variants), float, string, bytes,
    int32, int64 and nativeint are specialised, as is [=]/[<>] with a
    constant-constructor operand; [min] and [max] never are. *)

val check :
  path:string ->
  load_path:string list ->
  rules:Kernel.rule list ->
  Typedtree.structure ->
  Kernel.finding list
(** [check ~path ~load_path ~rules str] returns the findings of
    whichever of the two rules [rules] enables.  [path] is used verbatim
    in findings; [load_path] is the unit's ({!Cmt_index.unit_info}),
    needed to resolve operand types through abbreviations. *)
