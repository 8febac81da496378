(* Causal packet lineage.

   A lineage is a compact record threaded through lib/net packets: the
   origin (session, level, birth time) plus a bounded buffer of
   (sim_time, component) hops appended as the packet crosses
   instrumented sites (link enqueue/tx/rx, multicast fan-out, the
   SIGMA agent).  Retiring a lineage folds its hop chain into a
   domain-local transition table (from-component -> to-component:
   count / total / max latency), so forensics can break end-to-end
   latency down per hop without retaining every chain; interesting
   retirements (key rejections) are additionally kept whole in a
   bounded case log, which is where the containment critical path
   comes from.

   Collection is off by default.  Disabled, every packet shares its
   domain's sentinel record (empty hop arrays), so the hot-path [hop]
   call is a load and a length check — no allocation, no writes, and
   deterministic output is untouched.  Enabled, records are recycled
   through a bounded domain-local free list, so steady-state
   collection allocates nothing either (see the pool-reuse test). *)

let hop_cap = 16
let pool_cap = 4096
let case_cap = 64

type t = {
  mutable origin_session : int;
  mutable origin_level : int;
  mutable born : float;  (** sim time the origin stamped; -1 = unset *)
  mutable hops : int;
  mutable lost : int;  (** hops dropped beyond the buffer *)
  times : float array;  (** [hop_cap] slots; 0 slots = disabled sentinel *)
  comps : string array;
}

type transition = {
  from_comp : string;
  to_comp : string;
  t_count : int;
  t_total_s : float;
  t_max_s : float;
}

type case = {
  c_kind : string;
  c_time : float;
  c_attrs : (string * Json.t) list;
  c_session : int;
  c_level : int;
  c_born : float;
  c_hops : (float * string) list;
}

type agg = {
  mutable a_count : int;
  mutable a_total : float;
  mutable a_max : float;
}

type state = {
  mutable on : bool;
  sentinel : t;
  mutable pool : t list;
  mutable pooled : int;
  transitions : (string * string, agg) Hashtbl.t;
  mutable cases : case list;  (** newest first; the first [case_cap] kept *)
  mutable n_cases : int;
  mutable cases_dropped : int;
  mutable retired : int;
  mutable allocated : int;
  mutable pool_hits : int;
}

let fresh_record () =
  {
    origin_session = -1;
    origin_level = -1;
    born = -1.;
    hops = 0;
    lost = 0;
    times = Array.make hop_cap 0.;
    comps = Array.make hop_cap "";
  }

let state_key =
  Domain.DLS.new_key (fun () ->
      {
        on = false;
        sentinel =
          {
            origin_session = -1;
            origin_level = -1;
            born = -1.;
            hops = 0;
            lost = 0;
            times = [||];
            comps = [||];
          };
        pool = [];
        pooled = 0;
        transitions = Hashtbl.create 64;
        cases = [];
        n_cases = 0;
        cases_dropped = 0;
        retired = 0;
        allocated = 0;
        pool_hits = 0;
      })

let state () = Domain.DLS.get state_key

let reset () =
  let st = state () in
  st.pool <- [];
  st.pooled <- 0;
  Hashtbl.reset st.transitions;
  st.cases <- [];
  st.n_cases <- 0;
  st.cases_dropped <- 0;
  st.retired <- 0;
  st.allocated <- 0;
  st.pool_hits <- 0

let enable () =
  reset ();
  (state ()).on <- true

let disable () =
  (* Aggregates survive so callers can disable, then summarise; [enable]
     and [reset] clear them. *)
  (state ()).on <- false

let none () = (state ()).sentinel

(* The sentinel (and only the sentinel) has no hop slots, so one length
   check distinguishes live records on every hot-path entry point. *)
let is_none t = Array.length t.times = 0

let fresh () =
  let st = state () in
  if not st.on then st.sentinel
  else
    match st.pool with
    | r :: rest ->
        st.pool <- rest;
        st.pooled <- st.pooled - 1;
        st.pool_hits <- st.pool_hits + 1;
        r.origin_session <- -1;
        r.origin_level <- -1;
        r.born <- -1.;
        r.hops <- 0;
        r.lost <- 0;
        r
    | [] ->
        st.allocated <- st.allocated + 1;
        fresh_record ()

let release t =
  if not (is_none t) then begin
    let st = state () in
    if st.pooled < pool_cap then begin
      st.pool <- t :: st.pool;
      st.pooled <- st.pooled + 1
    end
  end

let clone src =
  if is_none src then src
  else begin
    let c = fresh () in
    if is_none c then c  (* collection raced off; keep the sentinel *)
    else begin
      c.origin_session <- src.origin_session;
      c.origin_level <- src.origin_level;
      c.born <- src.born;
      c.hops <- src.hops;
      c.lost <- src.lost;
      Array.blit src.times 0 c.times 0 src.hops;
      Array.blit src.comps 0 c.comps 0 src.hops;
      c
    end
  end

let set_origin t ~session ~level ~time =
  if not (is_none t) then begin
    t.origin_session <- session;
    t.origin_level <- level;
    t.born <- time
  end

let hop t ~time comp =
  if not (is_none t) then begin
    if t.hops < Array.length t.times then begin
      t.times.(t.hops) <- time;
      t.comps.(t.hops) <- comp;
      t.hops <- t.hops + 1
    end
    else t.lost <- t.lost + 1
  end

let hops t = List.init t.hops (fun i -> (t.times.(i), t.comps.(i)))
let lost t = t.lost

let note_transition st ~from_comp ~to_comp dt =
  let key = (from_comp, to_comp) in
  match Hashtbl.find_opt st.transitions key with
  | Some a ->
      a.a_count <- a.a_count + 1;
      a.a_total <- a.a_total +. dt;
      if dt > a.a_max then a.a_max <- dt
  | None ->
      Hashtbl.replace st.transitions key
        { a_count = 1; a_total = dt; a_max = dt }

let retire t ~time =
  if not (is_none t) then begin
    let st = state () in
    st.retired <- st.retired + 1;
    let prev_t = ref t.born and prev_c = ref "origin" in
    if t.born < 0. && t.hops > 0 then begin
      prev_t := t.times.(0);
      prev_c := t.comps.(0)
    end;
    for i = 0 to t.hops - 1 do
      let ti = t.times.(i) and ci = t.comps.(i) in
      if not (Float.equal ti !prev_t && String.equal ci !prev_c) then
        note_transition st ~from_comp:!prev_c ~to_comp:ci (ti -. !prev_t);
      prev_t := ti;
      prev_c := ci
    done;
    if t.hops > 0 then
      note_transition st ~from_comp:!prev_c ~to_comp:"retired" (time -. !prev_t)
  end

let note_case t ~kind ~time ~attrs =
  if not (is_none t) then begin
    let st = state () in
    if st.n_cases >= case_cap then st.cases_dropped <- st.cases_dropped + 1
    else begin
      st.cases <-
        {
          c_kind = kind;
          c_time = time;
          c_attrs = attrs;
          c_session = t.origin_session;
          c_level = t.origin_level;
          c_born = t.born;
          c_hops = hops t;
        }
        :: st.cases;
      st.n_cases <- st.n_cases + 1
    end
  end

(* --- summaries ---------------------------------------------------------- *)

type summary = {
  s_transitions : transition list;
  s_cases : case list;  (** in record order (oldest first) *)
  s_retired : int;
  s_allocated : int;
  s_pool_hits : int;
  s_cases_dropped : int;
}

let summary () =
  let st = state () in
  let transitions =
    Hashtbl.fold
      (fun (from_comp, to_comp) a acc ->
        {
          from_comp;
          to_comp;
          t_count = a.a_count;
          t_total_s = a.a_total;
          t_max_s = a.a_max;
        }
        :: acc)
      st.transitions []
    |> List.sort (fun a b ->
           match String.compare a.from_comp b.from_comp with
           | 0 -> String.compare a.to_comp b.to_comp
           | c -> c)
  in
  {
    s_transitions = transitions;
    s_cases = List.rev st.cases;
    s_retired = st.retired;
    s_allocated = st.allocated;
    s_pool_hits = st.pool_hits;
    s_cases_dropped = st.cases_dropped;
  }

let allocated () = (state ()).allocated
let pooled () = (state ()).pooled

let case_to_json c =
  Json.Obj
    [
      ("kind", Json.String c.c_kind);
      ("t", Json.Float c.c_time);
      ("session", Json.Int c.c_session);
      ("level", Json.Int c.c_level);
      ("born", Json.Float c.c_born);
      ( "hops",
        Json.List
          (List.map
             (fun (t, comp) -> Json.List [ Json.Float t; Json.String comp ])
             c.c_hops) );
      ("attrs", Json.Obj c.c_attrs);
    ]

let to_json s =
  Json.Obj
    [
      ( "transitions",
        Json.List
          (List.map
             (fun tr ->
               Json.Obj
                 [
                   ("from", Json.String tr.from_comp);
                   ("to", Json.String tr.to_comp);
                   ("count", Json.Int tr.t_count);
                   ("total_s", Json.Float tr.t_total_s);
                   ("max_s", Json.Float tr.t_max_s);
                 ])
             s.s_transitions) );
      ("cases", Json.List (List.map case_to_json s.s_cases));
      ("retired", Json.Int s.s_retired);
      ("allocated", Json.Int s.s_allocated);
      ("pool_hits", Json.Int s.s_pool_hits);
      ("cases_dropped", Json.Int s.s_cases_dropped);
    ]
