(* The linter runs in two stages.

   Stage one is purely syntactic: each file is parsed with the
   compiler's own parser and walked with an Ast_iterator, so it flags
   exactly what is written in the source, with no type information and
   no build context.

   Stage two ({!Typed}) resolves each file's .cmt (dune's -bin-annot
   output) and walks the Typedtree for the rules that need types:
   domain-escape, hot-alloc, hot-poly-compare and registry-exhaustive.
   A file whose .cmt is missing degrades to stage-one coverage only and
   is recorded in [cmts_missing] — reported, never fatal.

   Both stages share the vocabulary in {!Kernel} (re-exported here) and
   the same suppression machinery: in-source pragmas and the allowlist
   filter typed findings exactly as they filter syntactic ones. *)

type rule = Kernel.rule =
  | Wall_clock
  | Ambient_randomness
  | Shared_mutable_toplevel
  | Float_poly_compare
  | Mli_coverage
  | Prof_span
  | Gc_stats
  | Domain_escape
  | Hot_alloc
  | Hot_poly_compare
  | Registry_exhaustive

let all_rules = Kernel.all_rules
let typed_rules = Kernel.typed_rules
let rule_id = Kernel.rule_id
let rule_of_id = Kernel.rule_of_id
let rule_doc = Kernel.rule_doc

type finding = Kernel.finding = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  message : string;
}

type allow_entry = Kernel.allow_entry = {
  allow_rule : rule;
  allow_path : string;
}

type config = Kernel.config = {
  rules : rule list;
  allowlist : allow_entry list;
  build_dir : string option;
}

let default_config = Kernel.default_config

type report = Kernel.report = {
  findings : finding list;
  errors : (string * string) list;
  files_checked : int;
  cmts_loaded : int;
  cmts_missing : (string * string) list;
}

let normalize_path = Kernel.normalize_path
let allow_matches = Kernel.allow_matches
let parse_allowlist = Kernel.parse_allowlist
let load_allowlist = Kernel.load_allowlist
let scan_pragmas = Kernel.scan_pragmas
let pragma_suppresses = Kernel.pragma_suppresses
let finding_order = Kernel.finding_order
let has_prefix = Kernel.has_prefix

(* --- the syntactic pass ------------------------------------------------- *)

(* Sleeps are host-time dependencies just like clock reads: simulated
   code waits on the simulated clock, and the one legitimate pacing
   sleep (the Progress monitor's sampling loop) carries its own
   justified pragma. *)
let wall_clock_idents =
  [ "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Unix.sleep"; "Unix.sleepf" ]

let mutable_creators =
  [
    "ref";
    "Hashtbl.create";
    "Buffer.create";
    "Queue.create";
    "Stack.create";
    "Array.make";
    "Array.init";
    "Array.create_float";
    "Bytes.create";
    "Bytes.make";
  ]

let eq_ops = [ "="; "<>"; "=="; "!=" ]
let bare_compares = [ "compare"; "Stdlib.compare"; "Pervasives.compare" ]

let prof_span_idents =
  [
    "Prof.span";
    "Prof.with_span";
    "Mcc_obs.Prof.span";
    "Mcc_obs.Prof.with_span";
  ]

(* GC statistics are live telemetry: only lib/obs may read them, so no
   GC figure can leak into sinks or ledger payloads and perturb
   byte-identical output across machines. *)
let gc_stat_idents =
  [
    "Gc.quick_stat";
    "Gc.stat";
    "Gc.minor_words";
    "Gc.major_words";
    "Gc.counters";
    "Gc.allocated_bytes";
  ]

let rec lid_to_list = function
  | Longident.Lident s -> Some [ s ]
  | Longident.Ldot (l, s) ->
      Option.map (fun xs -> xs @ [ s ]) (lid_to_list l)
  | Longident.Lapply _ -> None

let lid_name lid =
  match lid_to_list lid with Some xs -> String.concat "." xs | None -> ""

let is_ambient_random name =
  has_prefix ~prefix:"Random." name
  && not (has_prefix ~prefix:"Random.State." name)

(* Float-shaped to the parser: a float literal, a float-operator or
   float-conversion application, a float-returning Float.* call, or an
   explicit [: float] constraint.  [=] on two un-annotated float
   variables is invisible here — the rule trades those misses for zero
   false positives on non-float code. *)
let rec is_floatish (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint
      (_, { ptyp_desc = Ptyp_constr ({ txt = Lident "float"; _ }, []); _ }) ->
      true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
      let name = lid_name txt in
      let float_op =
        String.length name > 1
        && name.[String.length name - 1] = '.'
        && List.mem name.[0] [ '+'; '-'; '*'; '/'; '~' ]
      in
      float_op
      || List.mem name [ "float_of_int"; "float"; "Float.of_int" ]
      || (has_prefix ~prefix:"Float." name
         && not (List.mem name [ "Float.to_int"; "Float.compare"; "Float.equal" ])
         )
      || List.exists (fun (_, a) -> is_floatish a) args
  | _ -> false

type ctx = { path : string; enabled : rule list; mutable found : finding list }

let report ctx rule (loc : Location.t) message =
  if List.mem rule ctx.enabled then
    ctx.found <-
      {
        rule;
        file = ctx.path;
        line = loc.loc_start.pos_lnum;
        col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        message;
      }
      :: ctx.found

(* Mutable-state creation in a module-level binding, stopping at
   function boundaries: [let t = Hashtbl.create 16] is shared by every
   domain, [let create () = Hashtbl.create 16] (and a Domain.DLS
   initialiser) allocates per call and is fine. *)
let scan_toplevel_mutable ctx expr =
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it (e : Parsetree.expression) ->
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> ()
          | Pexp_array _ ->
              report ctx Shared_mutable_toplevel e.pexp_loc
                "array literal at module level is mutable state shared \
                 across domains";
              default.expr it e
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
            when List.mem (lid_name txt) mutable_creators ->
              report ctx Shared_mutable_toplevel e.pexp_loc
                (Printf.sprintf
                   "%s at module level creates mutable state shared across \
                    domains; use a Domain.DLS registry or Atomic"
                   (lid_name txt));
              default.expr it e
          | _ -> default.expr it e);
    }
  in
  it.expr it expr

let make_iterator ctx =
  let default = Ast_iterator.default_iterator in
  {
    default with
    expr =
      (fun it (e : Parsetree.expression) ->
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } ->
            let name = lid_name txt in
            if List.mem name wall_clock_idents then
              report ctx Wall_clock e.pexp_loc
                (Printf.sprintf
                   "%s depends on the host clock; simulation code must use \
                    the simulated clock (profiling goes through \
                    Mcc_obs.Profile.with_wall_clock)"
                   name)
            else if String.equal name "Random.self_init" then
              report ctx Ambient_randomness e.pexp_loc
                "Random.self_init makes runs irreproducible; seed an \
                 explicit Mcc_util.Prng or Random.State instead"
            else if is_ambient_random name then
              report ctx Ambient_randomness e.pexp_loc
                (Printf.sprintf
                   "%s draws from the ambient global generator; thread \
                    seeded state (Mcc_util.Prng, Random.State) instead"
                   name)
            else if List.mem name bare_compares then
              report ctx Float_poly_compare e.pexp_loc
                "bare polymorphic compare; use a monomorphic comparison \
                 (Float.compare, Int.compare, String.compare, ...)"
            else if
              List.mem name gc_stat_idents
              && not (has_prefix ~prefix:"lib/obs/" (normalize_path ctx.path))
            then
              report ctx Gc_stats e.pexp_loc
                (Printf.sprintf
                   "%s reads GC statistics outside Mcc_obs; GC figures are \
                    live telemetry only and must never feed sinks or ledger \
                    payloads"
                   name)
            else if
              List.mem name prof_span_idents
              && not
                   (has_prefix ~prefix:"lib/" (normalize_path ctx.path)
                   && Sys.file_exists (ctx.path ^ "i"))
            then
              report ctx Prof_span e.pexp_loc
                (Printf.sprintf
                   "%s outside an interfaced lib/ module; span sites are \
                    instrumentation surface — keep them in lib/ behind an \
                    .mli"
                   name)
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; pexp_loc; _ }, args)
          when List.mem (lid_name txt) eq_ops
               && List.exists (fun (_, a) -> is_floatish a) args ->
            report ctx Float_poly_compare pexp_loc
              (Printf.sprintf
                 "polymorphic %s on a float operand; use \
                  Float.equal/Float.compare"
                 (lid_name txt))
        | _ -> ());
        default.expr it e);
    structure_item =
      (fun it (si : Parsetree.structure_item) ->
        (match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            (* [let () = ...] and [let _ = ...] bind nothing: mutable
               state created there is init-time scratch that dies with
               the binding (sharing it requires storing it in some
               named binding, which is flagged at that binding). *)
            let binds_nothing (p : Parsetree.pattern) =
              match p.ppat_desc with
              | Ppat_any -> true
              | Ppat_construct ({ txt = Lident "()"; _ }, None) -> true
              | _ -> false
            in
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                if not (binds_nothing vb.pvb_pat) then
                  scan_toplevel_mutable ctx vb.pvb_expr)
              vbs
        | _ -> ());
        default.structure_item it si);
  }

(* --- per-file driver ---------------------------------------------------- *)

let parse_structure ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception exn -> (
      match Location.error_of_exn exn with
      | Some (`Ok err) -> Error (Format.asprintf "%a" Location.print_report err)
      | Some `Already_displayed | None -> Error (Printexc.to_string exn))

let allow_suppresses config (f : finding) =
  List.exists
    (fun entry -> entry.allow_rule = f.rule && allow_matches entry f.file)
    config.allowlist

let check_source config ~path source =
  match parse_structure ~path source with
  | Error _ as e -> e
  | Ok ast ->
      let ctx = { path; enabled = config.rules; found = [] } in
      let it = make_iterator ctx in
      it.structure it ast;
      let pragmas = scan_pragmas source in
      let findings =
        List.filter
          (fun f ->
            (not (pragma_suppresses pragmas f))
            && not (allow_suppresses config f))
          ctx.found
      in
      Ok (List.sort finding_order findings)

let check_file config path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | source -> (
      match check_source config ~path source with
      | Error _ as e -> e
      | Ok findings ->
          let missing_mli =
            List.mem Mli_coverage config.rules
            && not (Sys.file_exists (path ^ "i"))
          in
          if missing_mli then
            let f =
              {
                rule = Mli_coverage;
                file = path;
                line = 1;
                col = 0;
                message =
                  Printf.sprintf "%s has no interface (%si missing)"
                    (Filename.basename path)
                    (Filename.basename path);
              }
            in
            let pragmas = scan_pragmas source in
            let suppressed =
              pragma_suppresses pragmas f || allow_suppresses config f
            in
            if suppressed then Ok findings
            else Ok (List.sort finding_order (f :: findings))
          else Ok findings)

(* --- tree walk ---------------------------------------------------------- *)

let rec collect_ml_files path acc =
  if Sys.is_directory path then
    Sys.readdir path
    |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if String.length entry = 0 || entry.[0] = '.' || entry.[0] = '_' then
             acc
           else collect_ml_files (Filename.concat path entry) acc)
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let run config paths =
  let errors = ref [] in
  let files =
    List.concat_map
      (fun p ->
        if Sys.file_exists p then List.rev (collect_ml_files p [])
        else begin
          errors := (p, "no such file or directory") :: !errors;
          []
        end)
      paths
  in
  let syntactic =
    List.concat_map
      (fun file ->
        match check_file config file with
        | Ok fs -> fs
        | Error msg ->
            errors := (file, msg) :: !errors;
            [])
      files
  in
  (* Stage two.  Typed findings go through the same pragma + allowlist
     filters; the pragma scan re-reads each flagged file's source. *)
  let typed = Typed.run config files in
  let pragma_cache = Hashtbl.create 16 in
  let pragmas_of file =
    match Hashtbl.find_opt pragma_cache file with
    | Some ps -> ps
    | None ->
        let ps =
          match In_channel.with_open_bin file In_channel.input_all with
          | source -> scan_pragmas source
          | exception Sys_error _ -> []
        in
        Hashtbl.replace pragma_cache file ps;
        ps
  in
  let typed_findings =
    List.filter
      (fun (f : finding) ->
        (not (pragma_suppresses (pragmas_of f.file) f))
        && not (allow_suppresses config f))
      typed.Typed.t_findings
  in
  {
    findings = List.sort finding_order (syntactic @ typed_findings);
    errors = List.rev !errors;
    files_checked = List.length files;
    cmts_loaded = typed.Typed.t_loaded;
    cmts_missing = typed.Typed.t_missing;
  }

let exit_code r =
  if r.errors <> [] then 2 else if r.findings <> [] then 1 else 0

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" f.file f.line f.col (rule_id f.rule)
    f.message

let report_to_json r =
  let module J = Mcc_obs.Json in
  J.Obj
    [
      ("tool", J.String "mcc-lint");
      ("rules", J.List (List.map (fun ru -> J.String (rule_id ru)) all_rules));
      ("files_checked", J.Int r.files_checked);
      ( "typed",
        J.Obj
          [
            ("cmts_loaded", J.Int r.cmts_loaded);
            ( "cmts_missing",
              J.List
                (List.map
                   (fun (file, reason) ->
                     J.Obj
                       [
                         ("file", J.String file);
                         ("reason", J.String reason);
                       ])
                   r.cmts_missing) );
          ] );
      ( "findings",
        J.List
          (List.map
             (fun f ->
               J.Obj
                 [
                   ("rule", J.String (rule_id f.rule));
                   ("file", J.String f.file);
                   ("line", J.Int f.line);
                   ("col", J.Int f.col);
                   ("message", J.String f.message);
                 ])
             r.findings) );
      ( "errors",
        J.List
          (List.map
             (fun (file, msg) ->
               J.Obj [ ("file", J.String file); ("message", J.String msg) ])
             r.errors) );
    ]
