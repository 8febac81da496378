(* hot-alloc: allocation sites inside functions marked [@hot].

   The engine's inner loops (Sim.step, the scheduler backends, link
   transmission, the packet pool) are allocation-free by contract so a
   steady-state run puts no pressure on the minor heap.  The contract
   is declared with a [@hot] attribute on the binding; this rule walks
   the typed body of every [@hot] function and flags expressions that
   allocate:

   - closure construction (a [fun] in executed position — the body of
     the nested closure is NOT walked, it runs elsewhere);
   - tuple / record / non-constant-constructor / polymorphic-variant /
     non-empty array construction, and [lazy];
   - partial application, detected by the application's *result* type
     being an arrow (erased optional arguments show up as missing
     arguments in the Typedtree, so counting arguments would
     false-positive on [Metrics.incr c]);
   - calls to known allocating stdlib entry points (Array.make,
     Printf.sprintf, List.map, ...).

   Out of scope (documented limitations): float boxing, closures the
   compiler eliminates by inlining, and allocation hidden behind
   callees outside the known list.  [assert] bodies are skipped —
   they are debug-build-only.

   The same walk carries a second rule, hot-poly-compare: a Stdlib
   comparison in a [@hot] body that the compiler cannot specialise, so
   that it calls caml_compare (through caml_lessthan and friends) and
   walks both operands' structure at run time.  The compiler picks the
   comparison from the operand type at the call site, after expanding
   abbreviations (Translprim.specialize_primitive): immediates (int,
   char, bool, constant-only variants) compare as ints; float, string,
   bytes, int32, int64 and nativeint have their own primitives (so a
   literal operand always specialises); and [=]/[<>] with a constant
   constructor operand compile to a pointer compare.  Anything else —
   a type variable left polymorphic, an option, a record — goes
   generic.  [min] and [max] are ordinary polymorphic functions, not
   primitives, so no operand type specialises them.  The rule rebuilds
   the typing environment at each site from the .cmt's summaries and
   the unit's load path and asks the compiler's own [Typeopt]. *)

open Typedtree

let path_is name target =
  String.equal name target || String.ends_with ~suffix:("." ^ target) name

let has_hot_attr attrs =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt "hot")
    attrs

(* Stdlib entry points that always allocate their result. *)
let allocating_callees =
  [
    "ref";
    "Array.make";
    "Array.init";
    "Array.copy";
    "Array.append";
    "Array.sub";
    "Array.of_list";
    "Array.to_list";
    "List.init";
    "List.map";
    "List.mapi";
    "List.filter";
    "List.filter_map";
    "List.rev";
    "List.append";
    "List.concat";
    "List.sort";
    "Printf.sprintf";
    "Format.asprintf";
    "String.concat";
    "String.sub";
    "String.make";
    "String.init";
    "Bytes.create";
    "Bytes.make";
    "Bytes.sub";
    "Buffer.create";
    "Buffer.contents";
    "Hashtbl.create";
    "Queue.create";
    "Stack.create";
  ]

let comparison_primitives = [ "="; "<>"; "<"; ">"; "<="; ">="; "compare" ]
let comparison_functions = [ "min"; "max" ]

let stdlib_comparison = function
  | Path.Pdot (Path.Pident m, op) when String.equal (Ident.name m) "Stdlib" ->
      if List.mem op comparison_primitives || List.mem op comparison_functions
      then Some op
      else None
  | _ -> None

let specialised_bases =
  Predef.
    [ path_float; path_string; path_bytes; path_int32; path_int64; path_nativeint ]

(* Whether the compiler specialises a comparison primitive whose
   instantiated type is [ty], by its first operand. *)
let specialised env ty =
  match Typeopt.is_function_type env ty with
  | None -> false
  | Some (operand, _) ->
      Typeopt.maybe_pointer_type env operand = Lambda.Immediate
      || List.exists (Typeopt.is_base_type env operand) specialised_bases

let constant_operand (_, arg) =
  match arg with
  | Some { exp_desc = Texp_construct (_, { cstr_tag = Cstr_constant _; _ }, _); _ }
  | Some { exp_desc = Texp_variant (_, None); _ } ->
      true
  | _ -> false

(* The operand type of a comparison whose instantiated type is [ty]. *)
let operand_name ty =
  let operand =
    match Types.get_desc ty with Types.Tarrow (_, t, _, _) -> t | _ -> ty
  in
  Format.asprintf "%a" Printtyp.type_expr operand

(* Rebuilds typing environments from a unit's summaries.  The compiler's
   load path and environment caches are global, so the first use resets
   them to this unit's path; a summary that cannot be replayed (a
   missing .cmi) yields [None]. *)
let env_rebuilder ~load_path =
  let ready = ref false in
  fun env ->
    if not !ready then begin
      Load_path.init ~auto_include:Load_path.no_auto_include load_path;
      Envaux.reset_cache ();
      ready := true
    end;
    match Envaux.env_of_only_summary env with
    | env -> Some env
    | exception _ -> None

let rec is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (ty, _) -> is_arrow ty
  | _ -> false

(* Strip the curried-parameter spine of a [@hot] binding: directly
   nested single-case unguarded Texp_functions are the parameters of
   one multi-argument function (how [let f x y = ...] is typed), not
   per-call closures.  A pattern-matching [function] body yields its
   case right-hand sides. *)
let rec bodies e =
  match e.exp_desc with
  | Texp_function { cases = [ { c_rhs; c_guard = None; _ } ]; _ } ->
      bodies c_rhs
  | Texp_function { cases; _ } ->
      List.concat_map
        (fun c ->
          (match c.c_guard with Some g -> [ g ] | None -> []) @ [ c.c_rhs ])
        cases
  | _ -> [ e ]

let check ~path ~load_path ~rules str =
  let findings = ref [] in
  let finding rule (loc : Location.t) message =
    findings :=
      {
        Kernel.rule;
        file = path;
        line = loc.loc_start.pos_lnum;
        col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        message;
      }
      :: !findings
  in
  let alloc_rule = List.mem Kernel.Hot_alloc rules in
  let compare_rule = List.mem Kernel.Hot_poly_compare rules in
  let emit ~fname loc what =
    if alloc_rule then
      finding Kernel.Hot_alloc loc
        (Printf.sprintf
           "%s in [@hot] function `%s'; hot paths are allocation-free by \
            contract"
           what fname)
  in
  let rebuild_env = env_rebuilder ~load_path in
  (* A comparison site [op] whose instantiated type is [head]'s, applied
     to [args] ([[]] when passed as a value). *)
  let compare_site ~fname (loc : Location.t) op (head : expression) args =
    let generic why =
      finding Kernel.Hot_poly_compare loc
        (Printf.sprintf
           "`%s' %s in [@hot] function `%s' calls caml_compare; type the \
            operands (int, float, string, ...) or use Int/Float comparisons"
           op why fname)
    in
    if List.mem op comparison_functions then
      generic "(a polymorphic Stdlib function, never specialised)"
    else if
      (String.equal op "=" || String.equal op "<>")
      && List.exists constant_operand args
    then ()
    else
      match rebuild_env head.exp_env with
      | None ->
          generic
            (Printf.sprintf "on %s (its type could not be resolved)"
               (operand_name head.exp_type))
      | Some env ->
          if not (specialised env head.exp_type) then
            generic ("on " ^ operand_name head.exp_type)
  in
  let walk_hot ~fname body =
    let default = Tast_iterator.default_iterator in
    let expr it (e : expression) =
      match e.exp_desc with
      | Texp_assert _ -> ()
      | Texp_function _ -> emit ~fname e.exp_loc "closure allocation"
      | Texp_tuple _ ->
          emit ~fname e.exp_loc "tuple allocation";
          default.expr it e
      | Texp_record _ ->
          emit ~fname e.exp_loc "record allocation";
          default.expr it e
      | Texp_array (_ :: _) ->
          emit ~fname e.exp_loc "array allocation";
          default.expr it e
      | Texp_construct (_, cd, _ :: _) ->
          emit ~fname e.exp_loc
            (Printf.sprintf "allocation of constructor %s" cd.cstr_name);
          default.expr it e
      | Texp_variant (_, Some _) ->
          emit ~fname e.exp_loc "polymorphic-variant allocation";
          default.expr it e
      | Texp_lazy _ ->
          emit ~fname e.exp_loc "lazy-block allocation";
          default.expr it e
      | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as head), args) -> (
          let name = Path.name p in
          (match List.find_opt (path_is name) allocating_callees with
          | Some callee ->
              emit ~fname e.exp_loc
                (Printf.sprintf "call to allocating %s" callee)
          | None ->
              if is_arrow e.exp_type then
                emit ~fname e.exp_loc "partial application (allocates a closure)");
          match stdlib_comparison p with
          | Some op when compare_rule ->
              compare_site ~fname e.exp_loc op head args;
              List.iter (fun (_, arg) -> Option.iter (it.expr it) arg) args
          | _ -> default.expr it e)
      | Texp_ident (p, _, _) when compare_rule -> (
          match stdlib_comparison p with
          | Some op -> compare_site ~fname e.exp_loc op e []
          | None -> ())
      | Texp_apply _ ->
          if is_arrow e.exp_type then
            emit ~fname e.exp_loc "partial application (allocates a closure)";
          default.expr it e
      | _ -> default.expr it e
    in
    let it = { default with expr } in
    it.expr it body
  in
  let default = Tast_iterator.default_iterator in
  let value_binding it (vb : value_binding) =
    if has_hot_attr vb.vb_attributes then begin
      let fname =
        match vb.vb_pat.pat_desc with
        | Tpat_var (id, _) -> Ident.name id
        | _ -> "<hot>"
      in
      List.iter (walk_hot ~fname) (bodies vb.vb_expr)
    end
    else default.value_binding it vb
  in
  let it = { default with value_binding } in
  it.structure it str;
  List.rev !findings
