(* Append-only JSONL run ledger; see the interface for the determinism
   discipline.  Everything here is plain file IO plus Json — no clock
   reads (timestamps are the *caller's* wall suffix) and no state, so
   the module stays as deterministic as the entries it stores. *)

type entry = {
  seq : int;
  kind : string;
  label : string;
  digest : string;
  payload : Json.t;
  wall : (string * Json.t) list;
}

let default_dir () =
  match Sys.getenv_opt "MCC_LEDGER" with
  | Some dir when String.length (String.trim dir) > 0 -> dir
  | Some _ | None -> Filename.concat ".mcc" "ledger"

let file ~dir = Filename.concat dir "ledger.jsonl"

(* FNV-1a, 64-bit.  A content hash, not a cryptographic one: entries
   are trusted local telemetry and the digest only has to make "same
   config" checks and history grouping cheap and stable. *)
let digest_of_string s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  Printf.sprintf "%016Lx" !h

let digest_of_json json = digest_of_string (Json.to_string json)

(* Wall fields render inside one trailing "wall" object, so truncating
   a line at "\"wall\"" leaves exactly the deterministic bytes. *)
let entry_to_json e =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("kind", Json.String e.kind);
      ("label", Json.String e.label);
      ("digest", Json.String e.digest);
      ("payload", e.payload);
      ("wall", Json.Obj e.wall);
    ]

let entry_of_json json =
  let str field =
    Option.bind (Json.member field json) Json.to_string_opt
  in
  let seq =
    match Json.member "seq" json with Some (Json.Int n) -> Some n | _ -> None
  in
  match (seq, str "kind", str "label", str "digest") with
  | Some seq, Some kind, Some label, Some digest ->
      Ok
        {
          seq;
          kind;
          label;
          digest;
          payload = Option.value (Json.member "payload" json) ~default:Json.Null;
          wall =
            (match Json.member "wall" json with
            | Some (Json.Obj fields) -> fields
            | _ -> []);
        }
  | _ -> Error "missing seq/kind/label/digest fields"

let read_lines path =
  In_channel.with_open_bin path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some line -> go (line :: acc)
        | None -> List.rev acc
      in
      go [])

(* A line that is not an entry (a write cut short, say) costs only
   itself: it is skipped with a warning, and the lines after it load. *)
let load ~dir =
  let path = file ~dir in
  if not (Sys.file_exists path) then Ok ([], [])
  else
    match read_lines path with
    | exception Sys_error msg -> Error msg
    | lines ->
        let parse line =
          match Json.of_string line with
          | Error e -> Error ("invalid JSON: " ^ e)
          | Ok json -> entry_of_json json
        in
        let rec go n entries skipped = function
          | [] -> Ok (List.rev entries, List.rev skipped)
          | line :: rest when String.trim line = "" ->
              go (n + 1) entries skipped rest
          | line :: rest -> (
              match parse line with
              | Ok entry -> go (n + 1) (entry :: entries) skipped rest
              | Error e ->
                  let warning = Printf.sprintf "%s: line %d: %s" path n e in
                  go (n + 1) entries (warning :: skipped) rest)
        in
        go 1 [] [] lines

(* Whether the file's last line lacks its newline, as a cut-short write
   leaves it. *)
let ends_mid_line path =
  In_channel.with_open_bin path (fun ic ->
      let len = In_channel.length ic in
      len > 0L
      &&
      (In_channel.seek ic (Int64.pred len);
       In_channel.input_char ic <> Some '\n'))

let rec mkdir_p dir =
  if String.equal dir "" || String.equal dir "." || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    match Sys.mkdir dir 0o755 with
    | () -> ()
    | exception Sys_error _ when Sys.file_exists dir -> ()
  end

let append ~dir ~kind ~label ?(payload = Json.Null) ?(wall = []) () =
  let digest_source =
    match Json.member "config" payload with
    | Some config -> config
    | None -> payload
  in
  let digest = digest_of_json digest_source in
  match load ~dir with
  | Error _ as e -> e
  | Ok (existing, _) -> (
      let seq = List.fold_left (fun acc e -> max acc e.seq) 0 existing + 1 in
      let entry = { seq; kind; label; digest; payload; wall } in
      let path = file ~dir in
      match
        mkdir_p dir;
        let start =
          if Sys.file_exists path && ends_mid_line path then "\n" else ""
        in
        Out_channel.with_open_gen
          [ Open_append; Open_creat; Open_binary ]
          0o644 path
          (fun oc ->
            Out_channel.output_string oc
              (start ^ Json.to_string (entry_to_json entry) ^ "\n"))
      with
      | () -> Ok entry
      | exception Sys_error msg -> Error msg)
