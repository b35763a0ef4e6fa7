(* Binary min-heap of (time, seq, callback), stored as parallel arrays
   instead of an array of event records.  [times] is an unboxed float
   array, so pushing an event allocates nothing beyond the caller's
   closure: at 100k peers the heap holds one pending event per peer and
   the old per-event record was the single largest allocation of the
   whole event loop.

   Sifts move a hole instead of swapping.  The entry being settled sits
   in a slot just past the live region (the new entry of a push, the
   displaced last entry of a removal) and is copied once, where it lands.

   Cancellable timers.  A seq is twice the scheduling counter, plus one
   for a timer, so ordering by seq is still scheduling order and an odd
   seq marks a timer.  Each live timer owns an id: [ids] maps a timer's
   slot to its id and [slot_of] maps the id back to the slot; the id
   returns to [free] when the timer fires or is cancelled.  Only a
   timer's move touches the index ([ids] of a plain event's slot is
   never read), so plain events pay one parity test per move.  A handle
   carries the timer's seq as well as its id; seqs are never reused, so
   a stale handle, whose id may now belong to another timer, matches no
   slot. *)
type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable runs : (unit -> unit) array;
  mutable ids : int array;
  mutable size : int;
  mutable slot_of : int array;
  mutable free : int array;
  mutable free_count : int;
  mutable next_id : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
}

type timer = { id : int; seq : int }

let no_timer = { id = -1; seq = -1 }
let no_run () = ()

let create () =
  {
    times = Array.make 256 0.;
    seqs = Array.make 256 0;
    runs = Array.make 256 no_run;
    ids = Array.make 256 0;
    size = 0;
    slot_of = Array.make 64 (-1);
    free = Array.make 64 0;
    free_count = 0;
    next_id = 0;
    clock = 0.;
    next_seq = 0;
    processed = 0;
  }

let now t = t.clock

(* (time, seq) lexicographic order: earlier time first, scheduling order
   breaking ties — the FIFO guarantee for equal timestamps. *)
let[@inline] earlier t i j =
  let ti = Array.unsafe_get t.times i and tj = Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

(* Copy the entry at [src] into [dst]; a timer's index follows it. *)
let[@inline] move t ~src ~dst =
  let seq = Array.unsafe_get t.seqs src in
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst seq;
  Array.unsafe_set t.runs dst (Array.unsafe_get t.runs src);
  if seq land 1 = 1 then begin
    let id = Array.unsafe_get t.ids src in
    Array.unsafe_set t.ids dst id;
    Array.unsafe_set t.slot_of id dst
  end

(* Settle the entry held at slot [h] (outside the live region) into the
   hole at [i]. *)
let rec sift_up t i h =
  let parent = (i - 1) / 2 in
  if i > 0 && earlier t h parent then begin
    move t ~src:parent ~dst:i;
    sift_up t parent h
  end
  else move t ~src:h ~dst:i

let rec sift_down t i h =
  let l = (2 * i) + 1 in
  if l >= t.size then move t ~src:h ~dst:i
  else begin
    let r = l + 1 in
    let c = if r < t.size && earlier t r l then r else l in
    if earlier t c h then begin
      move t ~src:c ~dst:i;
      sift_down t c h
    end
    else move t ~src:h ~dst:i
  end

let grow t =
  let cap = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.runs <- extend t.runs no_run;
  t.ids <- extend t.ids 0

(* The new entry is held one slot past the hole it starts from. *)
let push t ~time ~seq run id =
  if t.size + 2 > Array.length t.times then grow t;
  let i = t.size in
  let h = i + 1 in
  t.times.(h) <- time;
  t.seqs.(h) <- seq;
  t.runs.(h) <- run;
  t.ids.(h) <- id;
  t.size <- h;
  sift_up t i h;
  t.runs.(h) <- no_run

(* Remove the entry at slot [i]: the last entry fills the hole and
   settles up or down.  The callback slot is cleared as the live region
   shrinks, so the heap never retains a closure it will not run. *)
let remove_at t i =
  let last = t.size - 1 in
  t.size <- last;
  if i < last then
    if i > 0 && earlier t last ((i - 1) / 2) then sift_up t i last
    else sift_down t i last;
  t.runs.(last) <- no_run

let release t id =
  t.slot_of.(id) <- -1;
  t.free.(t.free_count) <- id;
  t.free_count <- t.free_count + 1

(* Pop the root event and run it (with the clock advanced to its time). *)
let pop_run t =
  let time = t.times.(0) in
  let run = t.runs.(0) in
  if t.seqs.(0) land 1 = 1 then release t t.ids.(0);
  remove_at t 0;
  t.clock <- time;
  t.processed <- t.processed + 1;
  run ()

(* Every time check below is written so that NaN fails it: a NaN time
   in the heap would become the clock when it pops, and every later
   comparison against a NaN clock is false, so nothing would fire again. *)
let schedule_at t ~time f =
  if Float.is_nan time then invalid_arg "Sim.schedule_at: time is NaN";
  let time = Float.max time t.clock in
  let seq = 2 * t.next_seq in
  t.next_seq <- t.next_seq + 1;
  push t ~time ~seq f 0

let schedule t ~delay f =
  if not (delay >= 0.) then invalid_arg "Sim.schedule: delay must be >= 0";
  schedule_at t ~time:(t.clock +. delay) f

(* A recycled id if there is one; [free] never holds more ids than
   [slot_of] has entries, so the two grow together. *)
let fresh_id t =
  if t.free_count > 0 then begin
    t.free_count <- t.free_count - 1;
    t.free.(t.free_count)
  end
  else begin
    let id = t.next_id in
    if id = Array.length t.slot_of then begin
      let slot_of = Array.make (2 * id) (-1) in
      Array.blit t.slot_of 0 slot_of 0 id;
      t.slot_of <- slot_of;
      t.free <- Array.make (2 * id) 0
    end;
    t.next_id <- id + 1;
    id
  end

let timer t ~delay f =
  if not (delay >= 0.) then invalid_arg "Sim.timer: delay must be >= 0";
  let seq = (2 * t.next_seq) + 1 in
  t.next_seq <- t.next_seq + 1;
  let id = fresh_id t in
  push t ~time:(t.clock +. delay) ~seq f id;
  { id; seq }

let cancel t { id; seq } =
  if id >= 0 then begin
    let i = t.slot_of.(id) in
    if i >= 0 && t.seqs.(i) = seq then begin
      release t id;
      remove_at t i
    end
  end

let run_until t ~time =
  if Float.is_nan time then invalid_arg "Sim.run_until: time is NaN";
  while t.size > 0 && t.times.(0) < time do
    pop_run t
  done;
  t.clock <- Float.max t.clock time

let run t =
  while t.size > 0 do
    pop_run t
  done

let pending t = t.size
let processed t = t.processed
