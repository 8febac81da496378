type t = { mutable times : float array; mutable values : float array; mutable len : int }

let create () = { times = Array.make 64 0.; values = Array.make 64 0.; len = 0 }

let ensure_capacity t =
  if t.len = Array.length t.times then begin
    let grow a = Array.append a (Array.make (Array.length a) 0.) in
    t.times <- grow t.times;
    t.values <- grow t.values
  end

let add t ~time ~value =
  if t.len > 0 && time < t.times.(t.len - 1) then
    invalid_arg "Series.add: time going backwards";
  ensure_capacity t;
  t.times.(t.len) <- time;
  t.values.(t.len) <- value;
  t.len <- t.len + 1

let length t = t.len

let to_list t =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) ((t.times.(i), t.values.(i)) :: acc)
  in
  build (t.len - 1) []
