(* Deduplicating set of non-negative integers (replica lists), stored as
   a sorted dynamic array.  Membership is a binary search, insertion and
   removal shift the tail, iteration is a zero-allocation array walk in
   ascending order.  Replica lists are small, so the O(k) shift on
   mutation is cheaper in practice than a hashed set and keeps iteration
   order deterministic, which the seeded experiments rely on.

   The kernels work on a run: [len] sorted ids at [data.(off) ..].  A set
   is the run at offset 0 of its own array; a routing level is a run in
   its overlay's arena (see [Node]).  Both go through the same kernels.
   Their loops are int loops, not [Array.blit]: on a major-heap array the
   blit goes through [caml_modify] for every element, while an [int
   array] store needs no write barrier. *)

(* Index of [x] in the run if present, otherwise [lnot insertion_point]. *)
let run_rank (data : int array) off len (x : int) =
  let lo = ref 0 and hi = ref len and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = Array.unsafe_get data (off + mid) in
    if v = x then found := mid else if v < x then lo := mid + 1 else hi := mid
  done;
  if !found >= 0 then !found else lnot !lo

let check_run (data : int array) off len =
  if off < 0 || len < 0 || off + len > Array.length data then
    invalid_arg "Intset: run out of range"

let run_insert (data : int array) off len at (x : int) =
  check_run data off (len + 1);
  for i = off + len downto off + at + 1 do
    Array.unsafe_set data i (Array.unsafe_get data (i - 1))
  done;
  data.(off + at) <- x

let run_delete (data : int array) off len at =
  check_run data off len;
  for i = off + at to off + len - 2 do
    Array.unsafe_set data i (Array.unsafe_get data (i + 1))
  done

(* [0 <= i < ilen] and [0 <= j < slen] bound every read below. *)
let run_fresh (idata : int array) ioff ilen (sdata : int array) soff slen =
  check_run idata ioff ilen;
  check_run sdata soff slen;
  let fresh = ref 0 and i = ref 0 in
  for j = 0 to slen - 1 do
    let b = Array.unsafe_get sdata (soff + j) in
    while !i < ilen && Array.unsafe_get idata (ioff + !i) < b do
      incr i
    done;
    if !i = ilen || Array.unsafe_get idata (ioff + !i) <> b then incr fresh
  done;
  !fresh

(* The merge runs from the back, so every element moves at most once and
   no slot is written before it has been read.  [k - i] is the number of
   source members still to insert, so the walk ends with [k = i] and the
   untouched prefix in place. *)
let run_merge (data : int array) off ilen (sdata : int array) soff slen n =
  check_run data off n;
  check_run sdata soff slen;
  let i = ref (ilen - 1) and k = ref (n - 1) in
  for j = slen - 1 downto 0 do
    let b = Array.unsafe_get sdata (soff + j) in
    while !i >= 0 && Array.unsafe_get data (off + !i) > b do
      Array.unsafe_set data (off + !k) (Array.unsafe_get data (off + !i));
      decr i;
      decr k
    done;
    if !i >= 0 && Array.unsafe_get data (off + !i) = b then decr i;
    Array.unsafe_set data (off + !k) b;
    decr k
  done

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 4) () = { data = Array.make (max 1 capacity) 0; len = 0 }
let cardinal t = t.len
let is_empty t = t.len = 0
let rank t x = run_rank t.data 0 t.len x
let mem t x = rank t x >= 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Intset.get: index out of range";
  Array.unsafe_get t.data i

(* Capacity doubles until it holds [n]. *)
let reserve t n =
  if n > Array.length t.data then begin
    let cap = ref (max 1 (Array.length t.data)) in
    while !cap < n do
      cap := 2 * !cap
    done;
    let grown = Array.make !cap 0 in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end

let add t x =
  let r = rank t x in
  if r < 0 then begin
    reserve t (t.len + 1);
    run_insert t.data 0 t.len (lnot r) x;
    t.len <- t.len + 1
  end

let remove t x =
  let r = rank t x in
  if r >= 0 then begin
    run_delete t.data 0 t.len r;
    t.len <- t.len - 1
  end

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let elements t = List.init t.len (fun i -> t.data.(i))
let to_array t = Array.sub t.data 0 t.len

let blit t dst =
  if t.len > Array.length dst then invalid_arg "Intset.blit: destination too short";
  for i = 0 to t.len - 1 do
    Array.unsafe_set dst i (Array.unsafe_get t.data i)
  done

let of_list xs =
  let t = create ~capacity:(max 1 (List.length xs)) () in
  List.iter (add t) xs;
  t

(* A first pass counts the members of [src] missing from [into]; when
   there are none (the common case for repeated replica exchanges)
   nothing is written or allocated. *)
let union_into ~into src =
  let fresh = run_fresh into.data 0 into.len src.data 0 src.len in
  if fresh > 0 then begin
    let n = into.len + fresh in
    reserve into n;
    run_merge into.data 0 into.len src.data 0 src.len n;
    into.len <- n
  end
