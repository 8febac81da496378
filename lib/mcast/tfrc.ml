let throughput ~packet_bytes ~rtt ~loss_rate =
  if packet_bytes <= 0 then invalid_arg "Tfrc.throughput: packet_bytes";
  if rtt <= 0. then invalid_arg "Tfrc.throughput: rtt";
  if loss_rate < 0. || loss_rate > 1. then
    invalid_arg "Tfrc.throughput: loss_rate";
  if Float.equal loss_rate 0. then infinity
  else begin
    let s = float_of_int (packet_bytes * 8) in
    let p = loss_rate in
    let t_rto = 4. *. rtt in
    let denom =
      (rtt *. sqrt (2. *. p /. 3.))
      +. (t_rto *. (3. *. sqrt (3. *. p /. 8.)) *. p *. (1. +. (32. *. p *. p)))
    in
    s /. denom
  end

module Loss_estimator = struct
  type t = { mutable value : float; mutable samples : int }

  (* Weight of a new sample: roughly a ten-slot memory. *)
  let alpha = 0.1
  let create () = { value = 0.; samples = 0 }

  let update t ~loss_rate =
    if loss_rate < 0. || loss_rate > 1. then
      invalid_arg "Loss_estimator.update";
    if t.samples = 0 then t.value <- loss_rate
    else t.value <- ((1. -. alpha) *. t.value) +. (alpha *. loss_rate);
    t.samples <- t.samples + 1

  let value t = t.value
  let samples t = t.samples
end
