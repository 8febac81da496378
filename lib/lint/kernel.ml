(* Shared vocabulary of both lint stages: rules, findings, the config
   record, suppression (pragmas + allowlist) and path normalisation.
   The syntactic pass (Lint) and the typed pass (Typed and the rule
   modules under it) both build on these types, so they live below
   either stage. *)

type rule =
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

let all_rules =
  [
    Wall_clock;
    Ambient_randomness;
    Shared_mutable_toplevel;
    Float_poly_compare;
    Mli_coverage;
    Prof_span;
    Gc_stats;
    Domain_escape;
    Hot_alloc;
    Hot_poly_compare;
    Registry_exhaustive;
  ]

let typed_rules =
  [ Domain_escape; Hot_alloc; Hot_poly_compare; Registry_exhaustive ]

let rule_id = function
  | Wall_clock -> "wall-clock"
  | Ambient_randomness -> "ambient-randomness"
  | Shared_mutable_toplevel -> "shared-mutable-toplevel"
  | Float_poly_compare -> "float-poly-compare"
  | Mli_coverage -> "mli-coverage"
  | Prof_span -> "prof-span"
  | Gc_stats -> "gc-stats"
  | Domain_escape -> "domain-escape"
  | Hot_alloc -> "hot-alloc"
  | Hot_poly_compare -> "hot-poly-compare"
  | Registry_exhaustive -> "registry-exhaustive"

let rule_of_id s =
  List.find_opt (fun r -> String.equal (rule_id r) s) all_rules

let rule_doc = function
  | Wall_clock ->
      "host clock dependency (Unix.gettimeofday/Unix.time/Sys.time, or a \
       Unix.sleep/sleepf pacing wait); use the simulated clock, or \
       Mcc_obs.Profile.with_wall_clock for profiling"
  | Ambient_randomness ->
      "ambient Random state (self_init or the global generator); use \
       seeded, explicitly threaded state (Mcc_util.Prng, Random.State)"
  | Shared_mutable_toplevel ->
      "mutable state created at module level is shared across every \
       domain; use Domain.DLS registries or Atomic"
  | Float_poly_compare ->
      "polymorphic =/compare on floats (or bare `compare`); use \
       Float.equal/Float.compare/String.compare so comparisons stay \
       monomorphic"
  | Mli_coverage -> "every library .ml must have a sibling .mli"
  | Prof_span ->
      "self-profiler span sites (Prof.span / Prof.with_span) must stay \
       in lib/ modules with an interface, so every instrumentation \
       point is part of a documented surface"
  | Gc_stats ->
      "GC statistics reads (Gc.quick_stat/Gc.stat/Gc.minor_words/...) \
       outside lib/obs; GC figures are live telemetry only and must \
       never feed sinks or ledger payloads"
  | Domain_escape ->
      "[typed] mutable value (ref, array, bytes, Hashtbl, record with \
       mutable fields) captured by a closure passed to Domain.spawn or \
       Domain.DLS.new_key; share via Atomic or keep the state \
       domain-confined"
  | Hot_alloc ->
      "[typed] allocating expression (closure/tuple/record/array/variant \
       construction, partial application, a known allocating call) in a \
       function marked [@hot]; the engine's hot loops are \
       allocation-free by contract"
  | Hot_poly_compare ->
      "[typed] a Stdlib comparison (=, <>, <, >, <=, >=, compare, min, \
       max) in a function marked [@hot] whose operand type the compiler \
       does not specialise, so it calls caml_compare; type the operands \
       (int, float, string, ...) or use Int/Float comparisons"
  | Registry_exhaustive ->
      "[typed] a catch-all pattern in a match over the Spec.protocol \
       registry type; name every constructor so a new protocol fails to \
       compile until Spec.impl gives it a module"

type finding = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  message : string;
}

type allow_entry = { allow_rule : rule; allow_path : string }

type config = {
  rules : rule list;
  allowlist : allow_entry list;
  build_dir : string option;
}

let default_config = { rules = all_rules; allowlist = []; build_dir = None }

type report = {
  findings : finding list;
  errors : (string * string) list;
  files_checked : int;
  cmts_loaded : int;
  cmts_missing : (string * string) list;
}

(* --- paths and the allowlist -------------------------------------------- *)

(* "./lib/core/runner.ml" and "../lib/core/runner.ml" (as seen from the
   test tree in _build) must both match an allowlist entry written as
   "lib/core/runner.ml", so matching drops "." and ".." segments. *)
let normalize_path p =
  String.split_on_char '/' p
  |> List.filter (fun seg ->
         not
           (String.equal seg "" || String.equal seg "."
           || String.equal seg ".."))
  |> String.concat "/"

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let allow_matches entry path =
  let path = normalize_path path in
  let entry_path = entry.allow_path in
  if String.length entry_path > 0 && entry_path.[String.length entry_path - 1] = '/'
  then
    let prefix = normalize_path entry_path ^ "/" in
    String.length path >= String.length prefix
    && String.equal (String.sub path 0 (String.length prefix)) prefix
  else String.equal path (normalize_path entry_path)

let parse_allowlist ?(file = "<allowlist>") text =
  let err = ref None in
  let entries =
    String.split_on_char '\n' text
    |> List.mapi (fun i line -> (i + 1, line))
    |> List.filter_map (fun (lnum, line) ->
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           let line = String.trim line in
           if String.equal line "" then None
           else
             match String.index_opt line ' ' with
             | None ->
                 if !err = None then
                   err :=
                     Some
                       (Printf.sprintf "%s:%d: expected \"<rule-id> <path>\""
                          file lnum);
                 None
             | Some i -> (
                 let id = String.sub line 0 i in
                 let path =
                   String.trim
                     (String.sub line (i + 1) (String.length line - i - 1))
                 in
                 match rule_of_id id with
                 | Some r -> Some { allow_rule = r; allow_path = path }
                 | None ->
                     if !err = None then
                       err :=
                         Some
                           (Printf.sprintf "%s:%d: unknown rule id %S" file
                              lnum id);
                     None))
  in
  match !err with Some e -> Error e | None -> Ok entries

let load_allowlist path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse_allowlist ~file:path text
  | exception Sys_error msg -> Error msg

(* --- pragmas ------------------------------------------------------------ *)

let pragma_marker = "(* lint: allow "

(* All (line, rule) pragma positions in the raw source.  Comments are
   invisible to the parser, so this is a plain text scan; an unknown
   rule id in a pragma is simply inert (the finding it meant to
   suppress still fires, which is how the typo gets noticed). *)
let scan_pragmas source =
  let pragmas = ref [] in
  String.split_on_char '\n' source
  |> List.iteri (fun i line ->
         let lnum = i + 1 in
         let rec scan from =
           match
             if from > String.length line then None
             else
               let found = ref None in
               (try
                  for j = from to String.length line - String.length pragma_marker do
                    if
                      !found = None
                      && String.equal
                           (String.sub line j (String.length pragma_marker))
                           pragma_marker
                    then found := Some j
                  done
                with Invalid_argument _ -> ());
               !found
           with
           | None -> ()
           | Some j ->
               let start = j + String.length pragma_marker in
               let stop = ref start in
               while
                 !stop < String.length line
                 && not
                      (List.mem line.[!stop] [ ' '; '\t'; '*'; ')' ])
               do
                 incr stop
               done;
               (match rule_of_id (String.sub line start (!stop - start)) with
               | Some r -> pragmas := (lnum, r) :: !pragmas
               | None -> ());
               scan (j + String.length pragma_marker)
         in
         scan 0);
  !pragmas

let pragma_suppresses pragmas (f : finding) =
  List.exists
    (fun (lnum, r) -> r = f.rule && (lnum = f.line || lnum = f.line - 1))
    pragmas

let finding_order a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare (rule_id a.rule) (rule_id b.rule)
          | c -> c)
      | c -> c)
  | c -> c
