type scheme = Repetition of int | Xor_parity

type coded = {
  chunk : int;
  total_chunks : int;
  copy : int;
  tuples : Tuple.t list;
  recovery : Tuple.t list;
  wire_bytes : int;
}

let chunked max_per_packet tuples =
  let rec split acc current count = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | t :: rest ->
        if count = max_per_packet then
          split (List.rev current :: acc) [ t ] 1 rest
        else split acc (t :: current) (count + 1) rest
  in
  split [] [] 0 tuples

let expansion scheme ~total_chunks =
  match scheme with
  | Repetition n -> float_of_int n
  | Xor_parity ->
      let k = float_of_int (max 1 total_chunks) in
      (k +. 1.) /. k

let encode ~width scheme ~max_per_packet tuples =
  if max_per_packet <= 0 then invalid_arg "Fec.encode: max_per_packet";
  if tuples = [] then invalid_arg "Fec.encode: no tuples";
  let chunks = chunked max_per_packet tuples in
  let k = List.length chunks in
  Mcc_obs.Metrics.set_gauge "sigma.fec.expansion"
    (expansion scheme ~total_chunks:k);
  let coded =
    match scheme with
  | Repetition n ->
      if n < 1 then invalid_arg "Fec.encode: Repetition < 1";
      List.concat
        (List.mapi
           (fun i chunk ->
             List.init n (fun copy ->
                 {
                   chunk = i;
                   total_chunks = k;
                   copy;
                   tuples = chunk;
                   recovery = [];
                   wire_bytes = Messages.special_bytes ~width chunk;
                 }))
           chunks)
  | Xor_parity ->
      let data =
        List.mapi
          (fun i chunk ->
            {
              chunk = i;
              total_chunks = k;
              copy = 0;
              tuples = chunk;
              recovery = [];
              wire_bytes = Messages.special_bytes ~width chunk;
            })
          chunks
      in
      let widest =
        List.fold_left
          (fun acc chunk -> max acc (Messages.special_bytes ~width chunk))
          0 chunks
      in
      (* The parity packet is the XOR of the data chunks: one chunk's
         wire size, and (by the MDS property we model) enough to recover
         any single missing chunk. *)
      data
      @ [
          {
            chunk = k;
            total_chunks = k;
            copy = 0;
            tuples = [];
            recovery = tuples;
            wire_bytes = widest;
          };
        ]
  in
  Mcc_obs.Metrics.tick "sigma.fec.chunks" ~by:(List.length coded);
  coded

type decoder = {
  seen : (int, Tuple.t list) Hashtbl.t;  (* data chunk -> tuples *)
  mutable parity : Tuple.t list option;
  mutable total : int option;
  mutable done_ : bool;
  mutable dups : int;
}

let decoder_create () =
  { seen = Hashtbl.create 8; parity = None; total = None; done_ = false;
    dups = 0 }

let duplicates d = d.dups

(* A packet that adds no information — repeat copy, repeat chunk, or any
   arrival after completion — is a suppressed duplicate: exactly the
   redundancy the FEC scheme paid for. *)
let note_duplicate d = d.dups <- d.dups + 1

let complete d = d.done_

let try_finish d =
  match d.total with
  | None -> None
  | Some k ->
      let have = Hashtbl.length d.seen in
      if have = k then begin
        d.done_ <- true;
        let out = ref [] in
        for i = k - 1 downto 0 do
          match Hashtbl.find_opt d.seen i with
          | Some ts -> out := ts @ !out
          | None -> ()
        done;
        Some !out
      end
      else if have = k - 1 && d.parity <> None then begin
        d.done_ <- true;
        d.parity
      end
      else None

let feed d coded =
  if d.done_ then begin
    note_duplicate d;
    None
  end
  else begin
    d.total <- Some coded.total_chunks;
    if coded.chunk = coded.total_chunks then begin
      if d.parity <> None then note_duplicate d;
      d.parity <- Some coded.recovery
    end
    else if Hashtbl.mem d.seen coded.chunk then note_duplicate d
    else Hashtbl.replace d.seen coded.chunk coded.tuples;
    try_finish d
  end
