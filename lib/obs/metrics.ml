type counter = { mutable count : int }
type gauge = { mutable value : float }

type histogram = {
  bounds : float array;
  buckets : int array;  (* length = Array.length bounds + 1 (overflow) *)
  mutable observations : int;
  mutable sum : float;
}

type metric =
  | Counter_m of counter
  | Gauge_m of gauge
  | Histogram_m of histogram

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float list;
      buckets : int list;
      observations : int;
      sum : float;
    }

(* Domain-local, like the packet-UID registry: every domain of a batch
   run owns its own table, so concurrent simulations never contend on —
   or non-deterministically interleave — the counters.  Handles fetched
   before a [reset] keep mutating their detached records and simply stop
   being visible in snapshots, which is exactly the isolation the
   per-run reset in [Runner] relies on. *)
let registry : (string, metric) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let table () = Domain.DLS.get registry

let kind_error name =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered with another kind" name)

let counter name =
  let tbl = table () in
  match Hashtbl.find_opt tbl name with
  | Some (Counter_m c) -> c
  | Some _ -> kind_error name
  | None ->
      let c = { count = 0 } in
      Hashtbl.replace tbl name (Counter_m c);
      c

let[@hot] incr_by c by = c.count <- c.count + by
let incr ?(by = 1) c = incr_by c by
let counter_value c = c.count
let tick ?by name = incr ?by (counter name)

let gauge name =
  let tbl = table () in
  match Hashtbl.find_opt tbl name with
  | Some (Gauge_m g) -> g
  | Some _ -> kind_error name
  | None ->
      let g = { value = 0. } in
      Hashtbl.replace tbl name (Gauge_m g);
      g

let set g v = g.value <- v
let set_gauge name v = set (gauge name) v

let exponential_bounds ~base ~count =
  if not (Float.is_finite base && base > 0.) then
    invalid_arg "Metrics.exponential_bounds: base must be finite and positive";
  if count < 1 then invalid_arg "Metrics.exponential_bounds: count must be >= 1";
  List.init count (fun i -> base *. Float.pow 2. (float_of_int i))

let histogram name ~bounds =
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | [ _ ] | [] -> true
  in
  if bounds = [] || not (ascending bounds) then
    invalid_arg "Metrics.histogram: bounds must be non-empty and ascending";
  let tbl = table () in
  match Hashtbl.find_opt tbl name with
  | Some (Histogram_m h) -> h
  | Some _ -> kind_error name
  | None ->
      let bounds = Array.of_list bounds in
      let h =
        {
          bounds;
          buckets = Array.make (Array.length bounds + 1) 0;
          observations = 0;
          sum = 0.;
        }
      in
      Hashtbl.replace tbl name (Histogram_m h);
      h

let observe h v =
  h.observations <- h.observations + 1;
  h.sum <- h.sum +. v;
  let n = Array.length h.bounds in
  let rec bucket i = if i >= n || v <= h.bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.buckets.(i) <- h.buckets.(i) + 1

let freeze = function
  | Counter_m c -> Counter c.count
  | Gauge_m g -> Gauge g.value
  | Histogram_m h ->
      Histogram
        {
          bounds = Array.to_list h.bounds;
          buckets = Array.to_list h.buckets;
          observations = h.observations;
          sum = h.sum;
        }

let snapshot () =
  Hashtbl.fold (fun name m acc -> (name, freeze m) :: acc) (table ()) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () = Hashtbl.reset (table ())

let value_json = function
  | Counter n -> Json.Int n
  | Gauge v -> Json.Float v
  | Histogram h ->
      Json.Obj
        [
          ("bounds", Json.List (List.map (fun b -> Json.Float b) h.bounds));
          ("buckets", Json.List (List.map (fun c -> Json.Int c) h.buckets));
          ("observations", Json.Int h.observations);
          ("sum", Json.Float h.sum);
        ]

let values_json values =
  Json.Obj (List.map (fun (name, v) -> (name, value_json v)) values)

(* --- OpenMetrics text rendering ----------------------------------------- *)

(* OpenMetrics metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; the dotted
   registry names map dots (and anything else foreign) to '_'. *)
let om_name ~prefix name =
  let b = Buffer.create (String.length prefix + String.length name) in
  Buffer.add_string b prefix;
  String.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || c = '_' || c = ':'
        || (c >= '0' && c <= '9' && (i > 0 || prefix <> ""))
      in
      Buffer.add_char b (if ok then c else '_'))
    name;
  Buffer.contents b

(* Label values are escaped like JSON strings minus the unicode forms:
   backslash, quote and newline, per the OpenMetrics ABNF. *)
let om_label_value s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let om_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (om_label_value v))
             labels)
      ^ "}"

let om_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let openmetrics_page ?(prefix = "mcc_") sets =
  let b = Buffer.create 4096 in
  (* Families must be unique in an exposition, so the page is grouped
     by metric: one TYPE/HELP block, then that metric's sample from
     every labelled set.  First-seen order keeps the page deterministic
     (snapshots are already name-sorted). *)
  let families = ref [] in
  List.iter
    (fun (_, values) ->
      List.iter
        (fun (name, v) ->
          if not (List.mem_assoc name !families) then
            families := (name, v) :: !families)
        values)
    sets;
  List.iter
    (fun (name, sample_kind) ->
      let fam = om_name ~prefix name in
      let om_type =
        match sample_kind with
        | Counter _ -> "counter"
        | Gauge _ -> "gauge"
        | Histogram _ -> "histogram"
      in
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s %s\n# HELP %s mcc metric %s\n" fam om_type
           fam name);
      List.iter
        (fun (labels, values) ->
          match List.assoc_opt name values with
          | None -> ()
          | Some (Counter n) ->
              Buffer.add_string b
                (Printf.sprintf "%s_total%s %d\n" fam (om_labels labels) n)
          | Some (Gauge v) ->
              Buffer.add_string b
                (Printf.sprintf "%s%s %s\n" fam (om_labels labels) (om_float v))
          | Some (Histogram { bounds; buckets; observations; sum }) ->
              (* OpenMetrics buckets are cumulative with inclusive upper
                 bounds; the registry's are per-bucket, so integrate. *)
              let acc = ref 0 in
              List.iter2
                (fun bound count ->
                  acc := !acc + count;
                  Buffer.add_string b
                    (Printf.sprintf "%s_bucket%s %d\n" fam
                       (om_labels (labels @ [ ("le", om_float bound) ]))
                       !acc))
                bounds
                (List.filteri (fun i _ -> i < List.length bounds) buckets);
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" fam
                   (om_labels (labels @ [ ("le", "+Inf") ]))
                   observations);
              Buffer.add_string b
                (Printf.sprintf "%s_sum%s %s\n" fam (om_labels labels)
                   (om_float sum));
              Buffer.add_string b
                (Printf.sprintf "%s_count%s %d\n" fam (om_labels labels)
                   observations))
        sets)
    (List.rev !families);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
