(* A path is [len] bits stored in the low bits of [bits]; the j-th bit of
   the path (j = 0 first) sits at position [len - 1 - j]. *)
type t = { bits : int; len : int }

let root = { bits = 0; len = 0 }
let length p = p.len

let extend p b =
  if b <> 0 && b <> 1 then invalid_arg "Path.extend: bit must be 0 or 1";
  if p.len >= Key.bits then invalid_arg "Path.extend: path full";
  { bits = (p.bits lsl 1) lor b; len = p.len + 1 }

let bit p i =
  if i < 0 || i >= p.len then invalid_arg "Path.bit: index out of range";
  (p.bits lsr (p.len - 1 - i)) land 1

let parent p =
  if p.len = 0 then invalid_arg "Path.parent: root has no parent";
  { bits = p.bits lsr 1; len = p.len - 1 }

let prefix p n =
  if n < 0 || n > p.len then invalid_arg "Path.prefix: bad length";
  { bits = p.bits lsr (p.len - n); len = n }

let sibling p =
  if p.len = 0 then invalid_arg "Path.sibling: root has no sibling";
  { p with bits = p.bits lxor 1 }

let complement_at p level =
  if level < 0 || level >= p.len then invalid_arg "Path.complement_at";
  sibling (prefix p (level + 1))

let is_prefix_of ~prefix:q p = q.len <= p.len && p.bits lsr (p.len - q.len) = q.bits

let msb x =
  let x = ref x and r = ref 0 in
  if !x lsr 32 <> 0 then (x := !x lsr 32; r := 32);
  if !x lsr 16 <> 0 then (x := !x lsr 16; r := !r + 16);
  if !x lsr 8 <> 0 then (x := !x lsr 8; r := !r + 8);
  if !x lsr 4 <> 0 then (x := !x lsr 4; r := !r + 4);
  if !x lsr 2 <> 0 then (x := !x lsr 2; r := !r + 2);
  if !x lsr 1 <> 0 then r := !r + 1;
  !r

(* Cut both paths to the shorter length [n]: their xor holds exactly the
   differing bits among the first [n], and the highest one is the first
   that differs. *)
let common_prefix_length a b =
  let n = min a.len b.len in
  let diff = (a.bits lsr (a.len - n)) lxor (b.bits lsr (b.len - n)) in
  if diff = 0 then n else n - 1 - msb diff

let matches_key p k = p.len = 0 || Key.to_int k lsr (Key.bits - p.len) = p.bits

let key_prefix k n =
  if n < 0 || n > Key.bits then invalid_arg "Path.key_prefix: bad length";
  { bits = Key.to_int k lsr (Key.bits - n); len = n }

let interval_keys p =
  let shift = Key.bits - p.len in
  (p.bits lsl shift, (p.bits + 1) lsl shift)

let interval p =
  let lo, hi = interval_keys p in
  let scale = float_of_int (1 lsl Key.bits) in
  (float_of_int lo /. scale, float_of_int hi /. scale)

let width p = 1. /. float_of_int (1 lsl p.len)

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
  let c = Int.compare (a.bits lsl (Key.bits - a.len)) (b.bits lsl (Key.bits - b.len)) in
  if c <> 0 then c else Int.compare a.len b.len

let equal a b = a.len = b.len && a.bits = b.bits
let code p = p.bits lor (1 lsl p.len)
let to_string p = String.init p.len (fun i -> if bit p i = 1 then '1' else '0')

let of_string s =
  if String.length s > Key.bits then invalid_arg "Path.of_string: too long";
  String.fold_left
    (fun acc c ->
      match c with
      | '0' -> extend acc 0
      | '1' -> extend acc 1
      | _ -> invalid_arg "Path.of_string: expected only '0'/'1'")
    root s

let pp fmt p = Format.pp_print_string fmt (if p.len = 0 then "<root>" else to_string p)

let enumerate_leaves depth =
  if depth < 0 || depth > Key.bits then invalid_arg "Path.enumerate_leaves";
  List.init (1 lsl depth) (fun i -> { bits = i; len = depth })
