(* Deduplicating set of non-negative integers (peer ids), stored as a
   sorted dynamic array.  Membership is a binary search, insertion and
   removal shift the tail, iteration is a zero-allocation array walk in
   ascending order.  Reference lists and replica lists are small (a
   handful of entries per routing level), so the O(k) shift on mutation
   is cheaper in practice than a hashed set and keeps iteration order
   deterministic, which the seeded experiments rely on. *)

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 4) () = { data = Array.make (max 1 capacity) 0; len = 0 }
let cardinal t = t.len
let is_empty t = t.len = 0

(* Index of [x] if present, otherwise [lnot insertion_point]. *)
let rank t x =
  let lo = ref 0 and hi = ref t.len and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = t.data.(mid) in
    if v = x then found := mid else if v < x then lo := mid + 1 else hi := mid
  done;
  if !found >= 0 then !found else lnot !lo

let mem t x = rank t x >= 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Intset.get: index out of range";
  Array.unsafe_get t.data i

(* The shifts are int loops, not [Array.blit]: on a major-heap array the
   blit goes through [caml_modify] for every element, while an [int
   array] store needs no write barrier. *)
let add t x =
  let r = rank t x in
  if r < 0 then begin
    let at = lnot r in
    if t.len = Array.length t.data then begin
      let grown = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 grown 0 t.len;
      t.data <- grown
    end;
    let data = t.data in
    for i = t.len downto at + 1 do
      Array.unsafe_set data i (Array.unsafe_get data (i - 1))
    done;
    data.(at) <- x;
    t.len <- t.len + 1
  end

let remove t x =
  let r = rank t x in
  if r >= 0 then begin
    let data = t.data in
    for i = r to t.len - 2 do
      Array.unsafe_set data i (Array.unsafe_get data (i + 1))
    done;
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
(* An int loop for the reason [add]'s comment gives. *)
let blit t dst =
  if t.len > Array.length dst then invalid_arg "Intset.blit: destination too short";
  for i = 0 to t.len - 1 do
    Array.unsafe_set dst i (Array.unsafe_get t.data i)
  done

let of_list xs =
  let t = create ~capacity:(max 1 (List.length xs)) () in
  List.iter (add t) xs;
  t

(* Linear two-pointer merge, in place.  A first pass counts the members
   of [src] missing from [into]; when there are none (the common case for
   repeated replica and reference exchanges) nothing is written or
   allocated.  Otherwise [into] grows by doubling and the merge runs from
   the back, so every element moves at most once and no slot is written
   before it has been read. *)
let union_into ~into src =
  let sdata = src.data and slen = src.len in
  let idata = into.data and ilen = into.len in
  (* [0 <= i < ilen <= length idata] and [0 <= j < slen <= length sdata]
     bound every read below. *)
  let fresh = ref 0 and i = ref 0 in
  for j = 0 to slen - 1 do
    let b = Array.unsafe_get sdata j in
    while !i < ilen && Array.unsafe_get idata !i < b do
      incr i
    done;
    if !i = ilen || Array.unsafe_get idata !i <> b then incr fresh
  done;
  if !fresh > 0 then begin
    let n = ilen + !fresh in
    let data =
      if n <= Array.length idata then idata
      else begin
        let cap = ref (max 1 (Array.length idata)) in
        while !cap < n do
          cap := 2 * !cap
        done;
        let grown = Array.make !cap 0 in
        Array.blit idata 0 grown 0 ilen;
        into.data <- grown;
        grown
      end
    in
    (* [k - i] is the number of [src] members still to insert, so the
       walk ends with [k = i] and the untouched prefix in place; [k < n]
       stays inside [data]. *)
    let i = ref (ilen - 1) and k = ref (n - 1) in
    for j = slen - 1 downto 0 do
      let b = Array.unsafe_get sdata j in
      while !i >= 0 && Array.unsafe_get data !i > b do
        Array.unsafe_set data !k (Array.unsafe_get data !i);
        decr i;
        decr k
      done;
      if !i >= 0 && Array.unsafe_get data !i = b then decr i;
      Array.unsafe_set data !k b;
      decr k
    done;
    into.len <- n
  end
