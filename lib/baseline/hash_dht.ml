module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key

let ring_bits = Key.bits
let ring_size = 1 lsl ring_bits

type t = {
  positions : int array;  (** sorted ring positions; index = node id *)
  fingers : int array array;  (** fingers.(node).(i): owner of pos + 2^i *)
}

(* splitmix64 finalizer truncated to the ring width. *)
let mix x =
  let open Int64 in
  let z = add (of_int x) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (shift_right_logical z (64 - ring_bits)) land (ring_size - 1)

let hash_string s =
  let h = ref 1469598103 in
  String.iter (fun c -> h := mix ((!h * 31) + Char.code c)) s;
  mix !h

(* First node index (into the sorted positions) at or after [hash],
   wrapping around. *)
let successor_index positions hash =
  let n = Array.length positions in
  let rec bisect lo hi = if lo >= hi then lo else begin
      let mid = (lo + hi) / 2 in
      if positions.(mid) < hash then bisect (mid + 1) hi else bisect lo mid
    end
  in
  let i = bisect 0 n in
  if i = n then 0 else i

let create rng ~nodes =
  if nodes < 1 then invalid_arg "Hash_dht.create: nodes must be >= 1";
  let seen = Hashtbl.create (2 * nodes) in
  let positions = Array.make nodes 0 in
  let filled = ref 0 in
  while !filled < nodes do
    let p = Key.to_int (Key.random rng) in
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      positions.(!filled) <- p;
      incr filled
    end
  done;
  Array.sort compare positions;
  let fingers =
    Array.init nodes (fun i ->
        Array.init ring_bits (fun bit ->
            let target = (positions.(i) + (1 lsl bit)) land (ring_size - 1) in
            successor_index positions target))
  in
  { positions; fingers }

let size t = Array.length t.positions
let responsible t ~hash = successor_index t.positions hash

(* Clockwise distance from [a] to [b]. *)
let distance a b = (b - a) land (ring_size - 1)

let lookup t ~from ~hash =
  let owner = responsible t ~hash in
  let rec hop cur hops =
    if cur = owner then (owner, hops)
    else begin
      (* Greedy: the finger covering the most clockwise distance without
         passing the target. *)
      let cur_pos = t.positions.(cur) in
      let togo = distance cur_pos hash in
      let best = ref cur and best_gain = ref 0 in
      Array.iter
        (fun f ->
          let gain = distance cur_pos t.positions.(f) in
          if gain > !best_gain && gain <= togo then begin
            best := f;
            best_gain := gain
          end)
        t.fingers.(cur);
      if !best = cur then (owner, hops + 1) (* direct successor step *)
      else hop !best (hops + 1)
    end
  in
  if from = owner then (owner, 0) else hop from 0

let mean_lookup_hops t ~samples ~rng =
  if samples < 1 then invalid_arg "Hash_dht.mean_lookup_hops";
  let total = ref 0 in
  for _ = 1 to samples do
    let from = Rng.int rng (size t) in
    let hash = Key.to_int (Key.random rng) in
    let _, hops = lookup t ~from ~hash in
    total := !total + hops
  done;
  float_of_int !total /. float_of_int samples
