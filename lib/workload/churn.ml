module Prng = Mcc_util.Prng
module Spec = Mcc_core.Spec

type interval = { host : int; at : float; until : float option }

(* A churn plan is pure data: intervals are computed up front from the
   spec (and the seed stream, for flash-crowd jitter), never from
   simulation state, so the same spec always produces the same
   membership timeline.  Each interval is realised as a fresh receiver
   instance; a rejoining host is a new receiver, matching how a real
   application would restart its session. *)

let arrivals (spec : Spec.churn_spec) =
  match spec with
  | Spec.No_churn | Spec.Diurnal _ | Spec.Regional_outage _ -> 0
  | Spec.Flash_crowd { arrivals; _ } -> arrivals

let hosts_needed ~spec ~receivers = receivers + arrivals spec

let base ~receivers = List.init receivers (fun i -> { host = i; at = 0.; until = None })

let plan prng ~(spec : Spec.churn_spec) ~receivers ~duration =
  match spec with
  | Spec.No_churn -> base ~receivers
  | Spec.Flash_crowd { at; arrivals; leave_after } ->
      (* The crowd lands on its own hosts (indices past the steady
         population), each jittered by up to a second so the joins do
         not arrive as one synchronized burst. *)
      let crowd =
        List.init arrivals (fun i ->
            let jitter = Prng.float prng in
            let join = at +. jitter in
            let until =
              if leave_after > 0. then Some (join +. leave_after) else None
            in
            { host = receivers + i; at = join; until })
      in
      base ~receivers @ crowd
  | Spec.Diurnal { period; fraction } ->
      (* The first [fraction] of the population cycles: on for the
         first half of every period, off for the second.  The rest stay
         subscribed for the whole run. *)
      let cycling =
        int_of_float (Float.round (fraction *. float_of_int receivers))
      in
      let cycling = max 0 (min receivers cycling) in
      let steady =
        List.init (receivers - cycling) (fun i ->
            { host = cycling + i; at = 0.; until = None })
      in
      let cycles = int_of_float (ceil (duration /. period)) in
      let cyclic =
        List.concat_map
          (fun i ->
            List.filter_map
              (fun k ->
                let at = float_of_int k *. period in
                if at >= duration then None
                else Some { host = i; at; until = Some (at +. (period /. 2.)) })
              (List.init (max 1 cycles) Fun.id))
          (List.init cycling Fun.id)
      in
      steady @ cyclic
  | Spec.Regional_outage { at; restore_at; fraction } ->
      (* A region — the first [fraction] of the population — drops at
         [at] and rejoins at [restore_at]. *)
      let affected =
        int_of_float (Float.round (fraction *. float_of_int receivers))
      in
      let affected = max 0 (min receivers affected) in
      let out =
        List.concat_map
          (fun i ->
            { host = i; at = 0.; until = Some at }
            ::
            (if restore_at < duration then
               [ { host = i; at = restore_at; until = None } ]
             else []))
          (List.init affected Fun.id)
      in
      let steady =
        List.init (receivers - affected) (fun i ->
            { host = affected + i; at = 0.; until = None })
      in
      out @ steady
