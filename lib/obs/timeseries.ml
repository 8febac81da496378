(* Sampled time series: the time dimension of the telemetry layer.

   Like the metrics registry, all state is domain-local — a batch worker
   samples exactly the simulation it runs, and parallel domains never
   share (or lock) a series.  Sampling is off by default and every entry
   point is a cheap no-op until [enable] turns it on, so instrumented
   components register samplers unconditionally without taxing runs that
   never asked for series.

   The driving clock lives in the engine: [Sim.create] checks [dt] and,
   when sampling is enabled, installs a periodic task that calls
   [sample_all] at the configured interval.  Inverting the hook this way
   keeps mcc_obs free of any engine dependency. *)

module Series = Mcc_util.Series

type sampler =
  | Gauge of (unit -> float)
  | Rate of { read : unit -> float; scale : float; mutable prev : float }

type state = {
  mutable dt : float option;  (** None = sampling disabled *)
  mutable samplers : (string * sampler) list;  (** reverse registration order *)
  names : (string, unit) Hashtbl.t;  (** the samplers' names; never iterated *)
  series : (string, Series.t) Hashtbl.t;
  mutable dropped : int;  (** points discarded by the [max_points] bound *)
}

(* Samples kept per series; later points only count into [dropped]. *)
let max_points = 65536

let state : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        dt = None;
        samplers = [];
        names = Hashtbl.create 16;
        series = Hashtbl.create 16;
        dropped = 0;
      })

let enable ~dt () =
  if not (Float.is_finite dt && dt > 0.) then
    invalid_arg "Timeseries.enable: dt must be finite and positive";
  (Domain.DLS.get state).dt <- Some dt

let enabled () = (Domain.DLS.get state).dt <> None
let dt () = (Domain.DLS.get state).dt

let reset () =
  let t = Domain.DLS.get state in
  t.samplers <- [];
  Hashtbl.reset t.names;
  Hashtbl.reset t.series;
  t.dropped <- 0

let disable () =
  let t = Domain.DLS.get state in
  t.dt <- None;
  reset ()

let dropped () = (Domain.DLS.get state).dropped

let series_for t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> s
  | None ->
      let s = Series.create () in
      Hashtbl.add t.series name s;
      s

let push t s ~time ~value =
  if Series.length s >= max_points then t.dropped <- t.dropped + 1
  else Series.add s ~time ~value

let record name ~time ~value =
  let t = Domain.DLS.get state in
  if t.dt <> None then push t (series_for t name) ~time ~value

(* Two components may pick the same series name; suffix later registrations "#2", "#3", ...
   deterministically rather than interleave their points. *)
let unique_name t name =
  let unique =
    if not (Hashtbl.mem t.names name) then name
    else
      let rec go k =
        let candidate = Printf.sprintf "%s#%d" name k in
        if Hashtbl.mem t.names candidate then go (k + 1) else candidate
      in
      go 2
  in
  Hashtbl.replace t.names unique ();
  unique

let add_sampler name sampler =
  let t = Domain.DLS.get state in
  if t.dt <> None then
    t.samplers <- (unique_name t name, sampler) :: t.samplers

let sample_gauge name read = add_sampler name (Gauge read)

let sample_rate ?(scale = 1.) name read =
  add_sampler name (Rate { read; scale; prev = read () })

let sample_all ~time =
  let t = Domain.DLS.get state in
  match t.dt with
  | None -> ()
  | Some dt ->
      (* Registration order (the list is reversed) keeps the point
         stream deterministic for a given spec. *)
      List.iter
        (fun (name, sampler) ->
          let value =
            match sampler with
            | Gauge read -> read ()
            | Rate r ->
                let now = r.read () in
                let per_s = (now -. r.prev) /. dt *. r.scale in
                r.prev <- now;
                per_s
          in
          push t (series_for t name) ~time ~value)
        (List.rev t.samplers)

let snapshot () =
  let t = Domain.DLS.get state in
  Hashtbl.fold (fun name s acc -> (name, Series.to_list s) :: acc) t.series []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot_json snap =
  Json.Obj (List.map (fun (name, points) -> (name, Json.of_series points)) snap)
