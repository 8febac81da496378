(* Allocation arenas for the packet hot path.

   Both structures store elements in flat arrays grown by doubling, so
   steady-state operation allocates nothing: the link FIFO replaces
   Stdlib.Queue (one cons cell per enqueue) and the free list backs
   Packet recycling.  Slots beyond the live region may keep stale
   references to previously stored elements until overwritten — callers
   hold recyclable or short-lived values, and [clear] drops the storage
   outright. *)

module Fifo = struct
  type 'a t = { mutable buf : 'a array; mutable head : int; mutable len : int }

  let initial_capacity = 16

  let create () = { buf = [||]; head = 0; len = 0 }
  let length t = t.len
  let is_empty t = t.len = 0
  let capacity t = Array.length t.buf

  (* Unwraps the ring while copying, so [head] restarts at 0; the filler
     is the element being pushed, immediately overwritten. *)
  let grow t filler =
    let cap = Array.length t.buf in
    let cap' = if cap = 0 then initial_capacity else 2 * cap in
    let buf' = Array.make cap' filler in
    for i = 0 to t.len - 1 do
      buf'.(i) <- t.buf.((t.head + i) mod cap)
    done;
    t.buf <- buf';
    t.head <- 0

  let[@hot] push t v =
    if t.len = Array.length t.buf then
      (* lint: allow hot-alloc — amortised doubling, not steady state *)
      grow t v;
    t.buf.((t.head + t.len) mod Array.length t.buf) <- v;
    t.len <- t.len + 1

  let[@hot] pop t =
    if t.len = 0 then invalid_arg "Pool.Fifo.pop: empty";
    let v = t.buf.(t.head) in
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    v

  let clear t =
    t.buf <- [||];
    t.head <- 0;
    t.len <- 0
end

module Freelist = struct
  type 'a t = { mutable store : 'a array; mutable len : int; cap : int }

  let create ~cap () = { store = [||]; len = 0; cap }
  let length t = t.len

  let[@hot] put t v =
    if t.len < t.cap then begin
      if t.len = Array.length t.store then begin
        let cap' = Int.min t.cap (Int.max 64 (2 * Array.length t.store)) in
        (* lint: allow hot-alloc — amortised doubling, not steady state *)
        let store' = Array.make cap' v in
        Array.blit t.store 0 store' 0 t.len;
        t.store <- store'
      end;
      t.store.(t.len) <- v;
      t.len <- t.len + 1
    end

  (* The take API is is_empty + pop (not [take : 'a option]): a [Some]
     box per recycled packet would put the pool itself on the hot
     path's allocation budget. *)
  let is_empty t = t.len = 0

  let[@hot] pop t =
    if t.len = 0 then invalid_arg "Pool.Freelist.pop: empty";
    t.len <- t.len - 1;
    t.store.(t.len)
end
