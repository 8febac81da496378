module Metrics = Mcc_obs.Metrics
module Profile = Mcc_obs.Profile
module Timeseries = Mcc_obs.Timeseries

type record = {
  name : string;
  group : string;
  spec : Spec.t;
  result : Experiments.result;
  metrics : (string * Metrics.value) list;
  series : (string * (float * float) list) list;
  profile : Profile.t option;
}

type t = { emit : record -> unit; close : unit -> unit }

let emit t record = t.emit record
let close t = t.close ()
let map f inner = { emit = (fun r -> inner.emit (f r)); close = inner.close }

let jsonl write =
  let emit r =
    let fields =
      [
        ("name", Json.String r.name);
        ("group", Json.String r.group);
        ("kind", Json.String (Spec.kind r.spec));
        ("spec", Spec.to_json r.spec);
        ("result", Report.result_json r.result);
      ]
      @ (if r.metrics = [] then []
         else [ ("metrics", Metrics.values_json r.metrics) ])
      (* The profile carries the only nondeterministic fields (wall
         clock); keeping it last lets consumers compare lines up to
         "wall_s" across job counts. *)
      @ match r.profile with
        | Some p -> [ ("profile", Profile.to_json p) ]
        | None -> []
    in
    write (Json.to_string (Json.Obj fields) ^ "\n")
  in
  { emit; close = (fun () -> ()) }

(* RFC 4180: quote a field when it contains a comma, a quote, or a line
   break; double embedded quotes. *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then begin
    let buf = Buffer.create (String.length s + 8) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let csv write =
  write "name,group,metric,value\n";
  let emit r =
    let row metric value =
      write
        (Printf.sprintf "%s,%s,%s,%.12g\n" (csv_field r.name)
           (csv_field r.group) (csv_field metric) value)
    in
    List.iter (fun (metric, value) -> row metric value) (Report.summary r.result);
    (* Counters and gauges are deterministic; histograms and the wall
       clock profile don't fit the long format and are jsonl-only. *)
    List.iter
      (fun (name, value) ->
        match value with
        | Metrics.Counter n -> row name (float_of_int n)
        | Metrics.Gauge v -> row name v
        | Metrics.Histogram _ -> ())
      r.metrics
  in
  { emit; close = (fun () -> ()) }

let to_file make path =
  let oc = open_out path in
  let sink = make (output_string oc) in
  {
    emit = sink.emit;
    close =
      (fun () ->
        sink.close ();
        close_out oc);
  }

let jsonl_file path = to_file jsonl path
let csv_file path = to_file csv path

(* One line per run, series only: the shape [mcc report] parses back.
   The spec rides along so the report can recover attack_at and the
   horizon without the original registry. *)
let series_jsonl write =
  let emit r =
    if r.series <> [] then
      write
        (Json.to_string
           (Json.Obj
              [
                ("name", Json.String r.name);
                ("group", Json.String r.group);
                ("kind", Json.String (Spec.kind r.spec));
                ("spec", Spec.to_json r.spec);
                ("series", Timeseries.snapshot_json r.series);
              ])
        ^ "\n")
  in
  { emit; close = (fun () -> ()) }

let pretty fmt =
  let emit r =
    Report.heading fmt (Printf.sprintf "%s (%s)" r.name (Spec.kind r.spec));
    Format.fprintf fmt "spec: %a@." Spec.pp r.spec;
    Report.result fmt r.result;
    match r.profile with
    | Some p -> Format.fprintf fmt "profile: %a@." Profile.pp p
    | None -> ()
  in
  { emit; close = (fun () -> Format.pp_print_flush fmt ()) }
