type level = Debug | Info | Warn

let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn"
let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2

type record = {
  sim_time : float;
  level : level;
  component : string;
  event : string;
  attrs : (string * Json.t) list;
}

type sink = {
  id : int;
  min_level : level;
  components : string list option;
  push : record -> unit;
}

(* Domain-local for the same reason the metrics registry is: a sink
   installed in one domain observes exactly the simulations that domain
   runs, and parallel batch domains never share (or lock) a sink. *)
let sinks : sink list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let next_id : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let enabled () = !(Domain.DLS.get sinks) <> []

(* A component filter matches exact names and dotted descendants on
   dotted boundaries only: "sigma" matches "sigma" and "sigma.router",
   never "sigmax" or "sigmax.fec".  A trailing dot is stripped first, so
   "sigma." (a natural way to type a prefix) behaves like "sigma"
   instead of silently matching nothing. *)
let strip_trailing_dots f =
  let rec last i = if i > 0 && f.[i - 1] = '.' then last (i - 1) else i in
  String.sub f 0 (last (String.length f))

let component_matches ~filter component =
  let filter = strip_trailing_dots filter in
  let lf = String.length filter and lc = String.length component in
  lf > 0
  && lc >= lf
  && String.sub component 0 lf = filter
  && (lc = lf || component.[lf] = '.')

(* Filter strings come straight from the CLI; a typo like "" or
   "sigma..router" would otherwise install a sink that silently matches
   nothing.  [check_component] is the shared validator. *)
let check_component filter =
  let has_space s = String.exists (fun c -> c = ' ' || c = '\t') s in
  if String.trim filter = "" then
    Error "component filter must not be empty or whitespace"
  else if has_space filter then
    Error
      (Printf.sprintf "component filter %S must not contain whitespace" filter)
  else
    let body = strip_trailing_dots filter in
    if List.exists (fun seg -> seg = "") (String.split_on_char '.' body) then
      Error
        (Printf.sprintf "component filter %S has an empty dotted segment" filter)
    else Ok ()

let check_components filters =
  List.fold_left
    (fun acc f -> match acc with Error _ -> acc | Ok () -> check_component f)
    (Ok ()) filters

let wants s ~level ~component =
  level_rank level >= level_rank s.min_level
  && (match s.components with
     | None -> true
     | Some filters ->
         List.exists (fun filter -> component_matches ~filter component) filters)

let emit_at ~level ~sim_time ~component ~event attrs =
  match !(Domain.DLS.get sinks) with
  | [] -> ()
  | all -> (
      match List.filter (fun s -> wants s ~level ~component) all with
      | [] -> ()
      | interested ->
          let r = { sim_time; level; component; event; attrs = attrs () } in
          (* Install order = reverse list order; deliver oldest first. *)
          List.iter (fun s -> s.push r) (List.rev interested))

let emit ?(level = Info) ~sim_time ~component ~event attrs =
  emit_at ~level ~sim_time ~component ~event attrs

let install ?(min_level = Debug) ?components push =
  let idr = Domain.DLS.get next_id in
  incr idr;
  let s = { id = !idr; min_level; components; push } in
  let r = Domain.DLS.get sinks in
  r := s :: !r;
  s

let remove s =
  let r = Domain.DLS.get sinks in
  r := List.filter (fun s' -> s'.id <> s.id) !r

let record_json r =
  Json.Obj
    ([
       ("t", Json.Float r.sim_time);
       ("level", Json.String (level_name r.level));
       ("component", Json.String r.component);
       ("event", Json.String r.event);
     ]
    @ match r.attrs with [] -> [] | attrs -> [ ("attrs", Json.Obj attrs) ])

let jsonl ?min_level ?components write =
  install ?min_level ?components
    (fun r -> write (Json.to_string (record_json r) ^ "\n"))
