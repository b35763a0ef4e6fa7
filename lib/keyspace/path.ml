(* A path is its own code: its [len] bits in the low bits, the j-th bit of
   the path (j = 0 first) at position [len - 1 - j], and a marker bit at
   position [len] above them.  The length is the marker's position, the
   [msb] of the code.  [Key.bits] is 60, so a code stays below 2^61 and
   fits an immediate int: a path costs no block and no load. *)
type t = int

(* The index of the highest set bit of each byte value (0 for 0): [msb]
   finds the highest non-zero byte in at most four compares and reads
   the rest here, with no loop.  Paths of up to 16 bits, every overlay
   this repository builds, take two compares. *)
let byte_msb =
  Bytes.init 256 (fun i ->
      let r = ref 0 in
      while i lsr (!r + 1) > 0 do
        incr r
      done;
      Char.chr !r)

let byte b = Char.code (Bytes.unsafe_get byte_msb b)

let msb x =
  if x < 0x1_0000 then if x < 0x100 then byte (x land 0xff) else 8 + byte (x lsr 8)
  else if x < 0x1_0000_0000 then
    if x < 0x100_0000 then 16 + byte (x lsr 16) else 24 + byte (x lsr 24)
  else if x < 0x1_0000_0000_0000 then
    if x < 0x100_0000_0000 then 32 + byte (x lsr 32) else 40 + byte (x lsr 40)
  else if x < 0x100_0000_0000_0000 then 48 + byte (x lsr 48)
  else 56 + byte ((x lsr 56) land 0xff)

let make bits len = bits lor (1 lsl len)
let root = 1
let length p = msb p

(* The bits without the marker, for a path of length [len]. *)
let bits p len = p lxor (1 lsl len)

let extend p b =
  if b <> 0 && b <> 1 then invalid_arg "Path.extend: bit must be 0 or 1";
  if length p >= Key.bits then invalid_arg "Path.extend: path full";
  (p lsl 1) lor b

let bit p i =
  let len = length p in
  if i < 0 || i >= len then invalid_arg "Path.bit: index out of range";
  (p lsr (len - 1 - i)) land 1

let parent p =
  if p = root then invalid_arg "Path.parent: root has no parent";
  p lsr 1

(* Shifting the code drops the last bits and keeps the marker on top. *)
let prefix p n =
  let len = length p in
  if n < 0 || n > len then invalid_arg "Path.prefix: bad length";
  p lsr (len - n)

let sibling p =
  if p = root then invalid_arg "Path.sibling: root has no sibling";
  p lxor 1

let complement_at p level =
  let len = length p in
  if level < 0 || level >= len then invalid_arg "Path.complement_at";
  (p lsr (len - level - 1)) lxor 1

let is_prefix_of ~prefix:q p =
  let lq = length q and lp = length p in
  lq <= lp && p lsr (lp - lq) = q

let diverges_from ~prefix:q ~len:lq p =
  let lp = length p in
  lq <= lp && p lsr (lp - lq) <> q

(* Cut both paths to the shorter length [n]: their xor holds exactly the
   differing bits among the first [n] (the markers meet and cancel), and
   the highest one is the first that differs. *)
let common_prefix_length a b =
  let la = length a and lb = length b in
  let n = min la lb in
  let diff = (a lsr (la - n)) lxor (b lsr (lb - n)) in
  if diff = 0 then n else n - 1 - msb diff

let key_code k n = make (Key.to_int k lsr (Key.bits - n)) n

let matches_key p k =
  let len = length p in
  key_code k len = p

let key_prefix k n =
  if n < 0 || n > Key.bits then invalid_arg "Path.key_prefix: bad length";
  key_code k n

let interval_keys p =
  let len = length p in
  let b = bits p len and shift = Key.bits - len in
  (b lsl shift, (b + 1) lsl shift)

let interval p =
  let lo, hi = interval_keys p in
  let scale = float_of_int (1 lsl Key.bits) in
  (float_of_int lo /. scale, float_of_int hi /. scale)

let width p = 1. /. float_of_int (1 lsl length p)

let overlap_fraction ~of_:q k =
  if is_prefix_of ~prefix:k q then 1.
  else if is_prefix_of ~prefix:q k then width k /. width q
  else 0.

let mid p =
  let lo, hi = interval_keys p in
  Key.of_int ((lo + hi) / 2)

(* Left-aligned to [Key.bits], the bits order two paths by their first
   differing bit; a prefix ties with its extensions by zeros, and the
   length breaks that tie, prefix first.  O(1). *)
let compare a b =
  let la = length a and lb = length b in
  let c = Int.compare (bits a la lsl (Key.bits - la)) (bits b lb lsl (Key.bits - lb)) in
  if c <> 0 then c else Int.compare la lb

let equal = Int.equal
let code p = p
let to_string p = String.init (length p) (fun i -> if bit p i = 1 then '1' else '0')

let of_string s =
  if String.length s > Key.bits then invalid_arg "Path.of_string: too long";
  String.fold_left
    (fun acc c ->
      match c with
      | '0' -> extend acc 0
      | '1' -> extend acc 1
      | _ -> invalid_arg "Path.of_string: expected only '0'/'1'")
    root s

let pp fmt p = Format.pp_print_string fmt (if p = root then "<root>" else to_string p)

let enumerate_leaves depth =
  if depth < 0 || depth > Key.bits then invalid_arg "Path.enumerate_leaves";
  List.init (1 lsl depth) (fun i -> make i depth)
