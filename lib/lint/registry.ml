(* registry-exhaustive: no catch-all over the Spec.protocol registry.

   In any match/function with two or more cases whose patterns have the
   registry type, a catch-all case (_, a variable, an alias or
   or-pattern reducing to one) silently swallows future registry
   entries — the whole point of a variant registry is that adding a
   constructor breaks every dispatch at compile time.  The check runs
   over the Typedtree so the registry type is identified by its
   resolved path rather than by name coincidence. *)

open Typedtree

(* Last name segment of a dotted/dune-mangled module path:
   "Mcc_core__Spec.protocols" -> (strip value) -> "Mcc_core__Spec" -> "Spec". *)
let seg_last s =
  let after_dot =
    match String.rindex_opt s '.' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s
  in
  let rec find i =
    if i < 0 then None
    else if
      i + 1 < String.length after_dot
      && after_dot.[i] = '_'
      && after_dot.[i + 1] = '_'
    then Some (i + 2)
    else find (i - 1)
  in
  match find (String.length after_dot - 2) with
  | Some start -> String.sub after_dot start (String.length after_dot - start)
  | None -> after_dot

(* The registry: the variant [Spec.protocol], defined in
   lib/core/spec.ml. *)
let reg_def = "lib/core/spec.ml"
let def_module = "Spec"
let reg_type = "protocol"

(* Is [p] the registry type?  Either a dotted path whose module segment
   is the defining module, or — only inside the defining file itself —
   the bare type name. *)
let is_registry_type ~in_def p =
  String.equal (Path.last p) reg_type
  &&
  let name = Path.name p in
  if String.equal name reg_type then in_def
  else
    let modpart =
      String.sub name 0 (String.length name - String.length reg_type - 1)
    in
    String.equal (seg_last modpart) def_module

let rec is_catch_all : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_var _ -> true
  | Tpat_alias (p, _, _) -> is_catch_all p
  | Tpat_or (a, b, _) -> is_catch_all a || is_catch_all b
  | Tpat_value v -> is_catch_all (v :> value general_pattern)
  | _ -> false

let finding ~path ~line ~col message =
  {
    Kernel.rule = Kernel.Registry_exhaustive;
    file = path;
    line;
    col;
    message;
  }

let check_catch_all ~path str =
  let in_def =
    let wanted = Kernel.normalize_path path in
    let def = Kernel.normalize_path reg_def in
    String.equal wanted def || String.ends_with ~suffix:("/" ^ def) wanted
    || String.ends_with ~suffix:("/" ^ Filename.basename def) wanted
  in
  let findings = ref [] in
  let check_cases : type k. k case list -> unit =
   fun cases ->
    match cases with
    | [] | [ _ ] -> ()
    | _ ->
        List.iter
          (fun c ->
            let p = c.c_lhs in
            match Types.get_desc p.pat_type with
            | Types.Tconstr (tp, _, _)
              when is_registry_type ~in_def tp ->
                if is_catch_all p then
                  findings :=
                    finding ~path ~line:p.pat_loc.loc_start.pos_lnum
                      ~col:
                        (p.pat_loc.loc_start.pos_cnum
                        - p.pat_loc.loc_start.pos_bol)
                      (Printf.sprintf
                         "catch-all pattern over registry type %s.%s; \
                          enumerate the constructors so new registry entries \
                          fail to compile here instead of being silently \
                          swallowed"
                         def_module reg_type)
                    :: !findings
            | _ -> ())
          cases
  in
  let default = Tast_iterator.default_iterator in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_match (_, cases, _) -> check_cases cases
    | Texp_function { cases; _ } -> check_cases cases
    | _ -> ());
    default.expr it e
  in
  let it = { default with expr } in
  it.structure it str;
  List.rev !findings
