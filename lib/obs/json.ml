type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_str f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.12g" f in
    (* "1." is not valid JSON; "%.12g" never produces it, but a plain
       integer mantissa like "3" is fine as a JSON number. *)
    s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_str f)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (name, value) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape name);
          Buffer.add_string buf "\":";
          write buf value)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

let of_series points =
  List (List.map (fun (x, y) -> List [ Float x; Float y ]) points)

(* --- parsing ------------------------------------------------------------

   A small recursive-descent parser, the inverse of [to_string]: enough
   JSON to read back what the sinks write (series/metrics JSONL lines,
   ledger entries) without an external dependency.  Accepts standard
   JSON; numbers with a '.', exponent, or out of int range become
   [Float], others [Int]. *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let parse_fail c msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" c.pos msg))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> parse_fail c (Printf.sprintf "expected %C, found %C" ch x)
  | None -> parse_fail c (Printf.sprintf "expected %C, found end of input" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then (
    c.pos <- c.pos + n;
    value)
  else parse_fail c (Printf.sprintf "invalid literal (expected %s)" word)

let hex_digit c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> parse_fail c "invalid \\u escape"

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then (
    Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f))))
  else (
    Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f))))

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> parse_fail c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' ->
        c.pos <- c.pos + 1;
        (match peek c with
        | None -> parse_fail c "unterminated escape"
        | Some ch ->
            c.pos <- c.pos + 1;
            (match ch with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if c.pos + 4 > String.length c.src then
                  parse_fail c "truncated \\u escape";
                let d i = hex_digit c c.src.[c.pos + i] in
                let code =
                  (d 0 lsl 12) lor (d 1 lsl 8) lor (d 2 lsl 4) lor d 3
                in
                c.pos <- c.pos + 4;
                add_utf8 buf code
            | _ -> parse_fail c "invalid escape"));
        go ()
    | Some ch ->
        c.pos <- c.pos + 1;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let consume () = c.pos <- c.pos + 1 in
  if peek c = Some '-' then consume ();
  while (match peek c with Some '0' .. '9' -> true | _ -> false) do
    consume ()
  done;
  if peek c = Some '.' then (
    is_float := true;
    consume ();
    while (match peek c with Some '0' .. '9' -> true | _ -> false) do
      consume ()
    done);
  (match peek c with
  | Some ('e' | 'E') ->
      is_float := true;
      consume ();
      (match peek c with Some ('+' | '-') -> consume () | _ -> ());
      while (match peek c with Some '0' .. '9' -> true | _ -> false) do
        consume ()
      done
  | _ -> ());
  let text = String.sub c.src start (c.pos - start) in
  if text = "" || text = "-" then parse_fail c "invalid number";
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_fail c "unexpected end of input"
  | Some '"' -> String (parse_string c)
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then (
        c.pos <- c.pos + 1;
        Obj [])
      else
        let rec fields acc =
          skip_ws c;
          let name = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              fields ((name, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              Obj (List.rev ((name, v) :: acc))
          | _ -> parse_fail c "expected ',' or '}'"
        in
        fields []
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then (
        c.pos <- c.pos + 1;
        List [])
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List (List.rev (v :: acc))
          | _ -> parse_fail c "expected ',' or ']'"
        in
        items []
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> parse_fail c (Printf.sprintf "unexpected character %C" ch)

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "at offset %d: trailing characters" c.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors ----------------------------------------------------------

   Total lookups for consumers walking parsed trees ([mcc report],
   [mcc diff]): each returns [None] rather than raising when
   the shape is not the expected one. *)

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_series = function
  | List items ->
      let point = function
        | List [ a; b ] -> (
            match (to_float_opt a, to_float_opt b) with
            | Some x, Some y -> Some (x, y)
            | _ -> None)
        | _ -> None
      in
      let points = List.filter_map point items in
      if List.length points = List.length items then Some points else None
  | _ -> None
