(* Stage two of the linter: rules that need type information.

   For every .ml under check, resolve its .cmt through Cmt_index and
   run the enabled typed rules over the Typedtree.  A file whose .cmt
   cannot be found degrades gracefully: it is recorded in [t_missing]
   (surfaced in the report and the JSON output) and the file is still
   covered by the syntactic stage — the typed stage reports, it never
   fails the run by itself.  Every typed rule is per-file. *)

type result = {
  t_findings : Kernel.finding list;
  t_loaded : int;
  t_missing : (string * string) list;
}

let run (config : Kernel.config) files =
  let enabled r = List.mem r config.Kernel.rules in
  if not (List.exists enabled Kernel.typed_rules) then
    { t_findings = []; t_loaded = 0; t_missing = [] }
  else begin
    let index = Cmt_index.create ?build_dir:config.Kernel.build_dir () in
    let findings = ref [] in
    let missing = ref [] in
    let ml_files =
      List.filter (fun f -> Filename.check_suffix f ".ml") files
    in
    List.iter
      (fun file ->
        match Cmt_index.lookup index file with
        | Error reason -> missing := (file, reason) :: !missing
        | Ok { Cmt_index.structure = str; load_path } ->
            if enabled Kernel.Domain_escape then
              findings := Escape.check ~path:file str @ !findings;
            if enabled Kernel.Hot_alloc || enabled Kernel.Hot_poly_compare then
              findings :=
                Hot_alloc.check ~path:file ~load_path
                  ~rules:config.Kernel.rules str
                @ !findings;
            if enabled Kernel.Registry_exhaustive then
              findings := Registry.check_catch_all ~path:file str @ !findings)
      ml_files;
    {
      t_findings = !findings;
      t_loaded = Cmt_index.loaded index;
      t_missing = List.rev !missing;
    }
  end
