(* Seconds per bin. *)
let bin = 1.0

type t = {
  mutable bins : float array; (* bytes per bin *)
  mutable last_time : float;
  mutable total : int;
}

let create () = { bins = Array.make 64 0.; last_time = 0.; total = 0 }
let bin_index time = int_of_float (time /. bin)

let ensure t idx =
  while idx >= Array.length t.bins do
    t.bins <- Array.append t.bins (Array.make (Array.length t.bins) 0.)
  done

let record t ~time ~bytes =
  if time < t.last_time then invalid_arg "Meter.record: time going backwards";
  t.last_time <- time;
  let idx = bin_index time in
  ensure t idx;
  t.bins.(idx) <- t.bins.(idx) +. float_of_int bytes;
  t.total <- t.total + bytes

let total_bytes t = t.total

let used_bins t = bin_index t.last_time + 1

let kbps_of_bytes bytes = bytes *. 8. /. bin /. 1000.

let throughput_kbps t =
  List.init (used_bins t) (fun i ->
      (float_of_int (i + 1) *. bin, kbps_of_bytes t.bins.(i)))

let smoothed_kbps t ~window =
  let n = used_bins t in
  let w = max 1 (int_of_float (window /. bin)) in
  List.init n (fun i ->
      let lo = max 0 (i - w + 1) in
      let sum = ref 0. in
      for j = lo to i do
        sum := !sum +. t.bins.(j)
      done;
      ( float_of_int (i + 1) *. bin,
        kbps_of_bytes (!sum /. float_of_int (i - lo + 1)) ))

let mean_kbps t ~lo ~hi =
  if hi <= lo then 0.
  else begin
    (* Weight each bin by its overlap with [lo, hi): windows that do not
       align with bin boundaries still average correctly. *)
    let nbins = Array.length t.bins in
    let lo_idx = max 0 (bin_index lo) in
    let hi_idx = min (nbins - 1) (bin_index (hi -. 1e-12)) in
    let sum = ref 0. in
    for i = lo_idx to hi_idx do
      let bin_lo = float_of_int i *. bin in
      let bin_hi = bin_lo +. bin in
      let overlap = Float.min hi bin_hi -. Float.max lo bin_lo in
      if overlap > 0. then sum := !sum +. (t.bins.(i) *. overlap /. bin)
    done;
    !sum *. 8. /. (hi -. lo) /. 1000.
  end
