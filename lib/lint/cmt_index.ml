(* Locating the .cmt behind a source file.

   Dune writes binary-annotation files under per-library object
   directories (lib/engine/.mcc_engine.objs/byte/mcc_engine__Sim.cmt,
   bin/.mcc.eobjs/byte/dune__exe__Mcc.cmt, ...), with the original
   source path recorded inside as [cmt_sourcefile], relative to the
   workspace root.  The index walks the build directory once, buckets
   every .cmt by the lowercased last [__]-segment of its basename (the
   module name dune derived from the filename), and resolves a source
   path by reading candidate .cmts lazily until one's recorded
   [cmt_sourcefile] matches.  Matching is by normalised equality, or by
   suffix at a [/] boundary so a file reached from a subdirectory
   ("lint_fixtures/x.ml" from the test tree) still finds its
   workspace-relative .cmt ("test/lint_fixtures/x.ml").

   Everything is per-index mutable state created by [create]; nothing
   is shared at module level. *)

type unit_info = { structure : Typedtree.structure; load_path : string list }
type read_result = (string * unit_info, string) result

type t = {
  build_dir : string;
  by_module : (string, string list) Hashtbl.t;
  mutable scanned : bool;
  reads : (string, read_result) Hashtbl.t;
  sources : (string, (unit_info, string) result) Hashtbl.t;
  mutable loaded : int;
}

let default_build_dir () =
  if Sys.file_exists "_build/default" && Sys.is_directory "_build/default"
  then "_build/default"
  else "."

let create ?build_dir () =
  let build_dir =
    match build_dir with Some d -> d | None -> default_build_dir ()
  in
  {
    build_dir;
    by_module = Hashtbl.create 256;
    scanned = false;
    reads = Hashtbl.create 64;
    sources = Hashtbl.create 64;
    loaded = 0;
  }

let build_dir t = t.build_dir

(* The module name dune derives for a .cmt basename: the segment after
   the last "__" (library prefixing), lowercased back to filename
   convention ("mcc_engine__Sim" -> "sim", "dune__exe__Mcc" -> "mcc"). *)
let module_key base =
  let rec last_sep i =
    if i < 0 then None
    else if i + 1 < String.length base && base.[i] = '_' && base.[i + 1] = '_'
    then Some (i + 2)
    else last_sep (i - 1)
  in
  let seg =
    match last_sep (String.length base - 2) with
    | Some start -> String.sub base start (String.length base - start)
    | None -> base
  in
  String.uncapitalize_ascii seg

let scan t =
  if not t.scanned then begin
    t.scanned <- true;
    let rec walk dir =
      match Sys.readdir dir with
      | exception Sys_error _ -> ()
      | entries ->
          Array.sort String.compare entries;
          Array.iter
            (fun entry ->
              if not (String.equal entry ".git") then begin
                let path = Filename.concat dir entry in
                if Sys.is_directory path then walk path
                else if Filename.check_suffix entry ".cmt" then begin
                  let key = module_key (Filename.chop_suffix entry ".cmt") in
                  let prev =
                    Option.value ~default:[]
                      (Hashtbl.find_opt t.by_module key)
                  in
                  Hashtbl.replace t.by_module key (path :: prev)
                end
              end)
            entries
    in
    walk t.build_dir
  end

(* The compiler records its load path relative to the directory it ran
   in, which is the build directory (absolute entries, such as the
   stdlib's, stay as they are). *)
let resolve_load_path t dirs =
  List.map
    (fun dir ->
      if Filename.is_relative dir then Filename.concat t.build_dir dir else dir)
    dirs

let read_cmt t path =
  match Hashtbl.find_opt t.reads path with
  | Some r -> r
  | None ->
      let r =
        match Cmt_format.read_cmt path with
        | exception exn ->
            Error (Printf.sprintf "unreadable .cmt: %s" (Printexc.to_string exn))
        | infos -> (
            match (infos.Cmt_format.cmt_sourcefile, infos.Cmt_format.cmt_annots)
            with
            | Some src, Cmt_format.Implementation structure ->
                let load_path =
                  resolve_load_path t infos.Cmt_format.cmt_loadpath
                in
                Ok (Kernel.normalize_path src, { structure; load_path })
            | Some _, _ -> Error "not a whole-implementation .cmt"
            | None, _ -> Error ".cmt records no source file")
      in
      Hashtbl.replace t.reads path r;
      r

(* [recorded] is the normalised workspace-relative path inside the
   .cmt; [wanted] the normalised path the caller asked about. *)
let source_matches ~recorded ~wanted =
  String.equal recorded wanted
  || (String.length recorded > String.length wanted + 1
     && String.ends_with ~suffix:("/" ^ wanted) recorded)

let lookup t source =
  let wanted = Kernel.normalize_path source in
  match Hashtbl.find_opt t.sources wanted with
  | Some r -> r
  | None ->
      scan t;
      let key =
        String.uncapitalize_ascii
          (Filename.remove_extension (Filename.basename wanted))
      in
      let candidates =
        List.sort String.compare
          (Option.value ~default:[] (Hashtbl.find_opt t.by_module key))
      in
      let matches =
        List.filter_map
          (fun path ->
            match read_cmt t path with
            | Ok (recorded, info) when source_matches ~recorded ~wanted ->
                Some (recorded, info)
            | Ok _ | Error _ -> None)
          candidates
      in
      let exact =
        List.filter (fun (recorded, _) -> String.equal recorded wanted) matches
      in
      let r =
        match (exact, matches) with
        | (_, info) :: _, _ | [], [ (_, info) ] -> Ok info
        | [], [] ->
            if candidates = [] then
              Error
                (Printf.sprintf
                   "no .cmt under %s (typed rules need a dune build first)"
                   t.build_dir)
            else
              Error
                (Printf.sprintf
                   "no .cmt under %s records this source (stale build?)"
                   t.build_dir)
        | [], _ :: _ :: _ ->
            Error "several .cmt files match this source ambiguously"
      in
      Hashtbl.replace t.sources wanted r;
      (match r with Ok _ -> t.loaded <- t.loaded + 1 | Error _ -> ());
      r

let loaded t = t.loaded
