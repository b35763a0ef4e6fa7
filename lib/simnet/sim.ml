(* A 4-ary min-heap of (time, seq, slot) in three parallel arrays, all
   of them unboxed: [times] is a float array and the other two hold
   ints, so a move is three plain stores with no write barrier and the
   GC never scans the heap.  An event's closure does not move with it:
   it sits in the slot table ([runs], indexed by slot) from scheduling
   until it runs or is cancelled, and [pos] maps each slot to its
   entry's index in the heap (-1 for a free slot).  Freed slots go on
   the [free] stack and are reused last-in first-out; when the stack is
   empty, every slot handed out so far is live, so the next one is
   [size].

   Sifts move a hole instead of swapping.  The entry being settled is
   parked in the heap arrays just past the live region (the new entry
   of a push, the displaced last entry of a removal) and copied once,
   where it lands; that keeps its time in the unboxed array, where a
   float argument would be boxed.

   Seqs are the scheduling counter, so ordering by (time, seq) is
   scheduling order among equal times; (time, seq) is a total order, so
   the arity of the heap does not change the order events run in.  A
   timer's handle is its seq above its slot's [slot_bits] bits.  Seqs
   are never reused, so a stale handle, whose slot may now hold another
   event, matches no entry. *)
type clock = { mutable now : float }

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable runs : (unit -> unit) array;
  mutable pos : int array;
  mutable free : int array;
  mutable free_count : int;
  clock : clock;  (* a float-only record, so the clock is stored unboxed *)
  mutable next_seq : int;
  mutable processed : int;
}

type timer = int

(* 2^26 slots is more than memory holds (six arrays of that length),
   and leaves 36 bits of seq, 6.9e10 events, for a handle. *)
let slot_bits = 26
let slot_mask = (1 lsl slot_bits) - 1
let max_seq = max_int lsr slot_bits
let no_timer = -1
let no_run () = ()

let create () =
  let cap = 256 in
  {
    times = Array.make cap 0.;
    seqs = Array.make cap 0;
    slots = Array.make cap 0;
    size = 0;
    runs = Array.make cap no_run;
    pos = Array.make cap (-1);
    free = Array.make cap 0;
    free_count = 0;
    clock = { now = 0. };
    next_seq = 0;
    processed = 0;
  }

let[@inline] now t = t.clock.now

(* (time, seq) lexicographic order: earlier time first, scheduling order
   breaking ties — the FIFO guarantee for equal timestamps. *)
let[@inline] earlier t i j =
  let ti = Array.unsafe_get t.times i and tj = Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

(* Copy the entry at [src] into [dst]; its slot's position follows. *)
let[@inline] move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  let s = Array.unsafe_get t.slots src in
  Array.unsafe_set t.slots dst s;
  Array.unsafe_set t.pos s dst

(* Settle the entry parked at [h] (outside the live region) into the
   hole at [i]. *)
let rec sift_up t i h =
  let parent = (i - 1) lsr 2 in
  if i > 0 && earlier t h parent then begin
    move t ~src:parent ~dst:i;
    sift_up t parent h
  end
  else move t ~src:h ~dst:i

let rec sift_down t i h =
  let first = (4 * i) + 1 in
  if first >= t.size then move t ~src:h ~dst:i
  else begin
    let c = ref first in
    let last = if first + 3 < t.size then first + 3 else t.size - 1 in
    for k = first + 1 to last do
      if earlier t k !c then c := k
    done;
    let c = !c in
    if earlier t c h then begin
      move t ~src:c ~dst:i;
      sift_down t c h
    end
    else move t ~src:h ~dst:i
  end

let grow t =
  let old = Array.length t.times in
  let cap = 2 * old in
  if cap > slot_mask + 1 then failwith "Sim: too many pending events";
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.runs <- extend t.runs no_run;
  t.pos <- extend t.pos (-1);
  t.free <- extend t.free 0

(* Park a new entry's time one past the hole it starts from, growing the
   arrays first if the hole and the parking place do not fit.  At most
   [size + 1] slots are live while an entry is parked, so the slot table
   fits as well. *)
let[@inline] park t time =
  if t.size + 2 > Array.length t.times then grow t;
  Array.unsafe_set t.times (t.size + 1) time

(* Give the parked entry a seq and a slot holding [run], settle it, and
   return its handle. *)
let insert t run =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot =
    if t.free_count > 0 then begin
      t.free_count <- t.free_count - 1;
      t.free.(t.free_count)
    end
    else t.size
  in
  t.runs.(slot) <- run;
  let i = t.size in
  let h = i + 1 in
  t.seqs.(h) <- seq;
  t.slots.(h) <- slot;
  t.size <- h;
  sift_up t i h;
  (seq lsl slot_bits) lor slot

let release t slot =
  t.runs.(slot) <- no_run;
  t.pos.(slot) <- -1;
  t.free.(t.free_count) <- slot;
  t.free_count <- t.free_count + 1

(* Remove the entry at index [i]: the last entry fills the hole and
   settles up or down. *)
let remove_at t i =
  let last = t.size - 1 in
  t.size <- last;
  if i < last then
    if i > 0 && earlier t last ((i - 1) lsr 2) then sift_up t i last
    else sift_down t i last

(* Pop the root event and run it (with the clock advanced to its time).
   Its slot is free before it runs, so the events it schedules may take
   it. *)
let pop_run t =
  let time = t.times.(0) in
  let slot = t.slots.(0) in
  let run = t.runs.(slot) in
  release t slot;
  remove_at t 0;
  t.clock.now <- time;
  t.processed <- t.processed + 1;
  run ()

(* [Float.max time now] for non-NaN arguments, written out so that
   neither is boxed. *)
let[@inline] not_before time now =
  if now > time || ((not (Float.sign_bit now)) && Float.sign_bit time) then now else time

(* Every time check below is written so that NaN fails it: a NaN time
   in the heap would become the clock when it pops, and every later
   comparison against a NaN clock is false, so nothing would fire again. *)
let[@inline] schedule_at t ~time f =
  if Float.is_nan time then invalid_arg "Sim.schedule_at: time is NaN";
  park t (not_before time t.clock.now);
  ignore (insert t f : timer)

let[@inline] schedule t ~delay f =
  if not (delay >= 0.) then invalid_arg "Sim.schedule: delay must be >= 0";
  schedule_at t ~time:(t.clock.now +. delay) f

let timer t ~delay f =
  if not (delay >= 0.) then invalid_arg "Sim.timer: delay must be >= 0";
  if t.next_seq > max_seq then failwith "Sim.timer: handle space exhausted";
  park t (t.clock.now +. delay);
  insert t f

let cancel t h =
  if h >= 0 then begin
    let slot = h land slot_mask in
    if slot < Array.length t.pos then begin
      let i = t.pos.(slot) in
      if i >= 0 && t.seqs.(i) = h lsr slot_bits then begin
        release t slot;
        remove_at t i
      end
    end
  end

let every t ~at ~until ~period f =
  let rec run () =
    if now t < until then begin
      f ();
      let p = period () in
      if not (p >= 0.) then invalid_arg "Sim.every: period must be >= 0";
      schedule t ~delay:p run
    end
  in
  schedule_at t ~time:at run

let backoff = 2.

let backoff_delay rng ~base ~jitter k =
  let d = base *. (backoff ** float_of_int k) in
  if jitter > 0. then d *. (1. +. (jitter *. Pgrid_prng.Rng.float rng)) else d

let run_until t ~time =
  if Float.is_nan time then invalid_arg "Sim.run_until: time is NaN";
  while t.size > 0 && t.times.(0) < time do
    pop_run t
  done;
  t.clock.now <- Float.max t.clock.now time

let run t =
  while t.size > 0 do
    pop_run t
  done

let pending t = t.size
let processed t = t.processed
