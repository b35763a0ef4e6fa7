(* Binary min-heap of (time, seq, callback), stored as three parallel
   arrays instead of an array of event records.  [times] is an unboxed
   float array, so pushing an event allocates nothing beyond the caller's
   closure: at 100k peers the heap holds one pending event per peer and
   the old per-event record was the single largest allocation of the
   whole event loop. *)
type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable runs : (unit -> unit) array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
}

let no_run () = ()

let create () =
  {
    times = Array.make 256 0.;
    seqs = Array.make 256 0;
    runs = Array.make 256 no_run;
    size = 0;
    clock = 0.;
    next_seq = 0;
    processed = 0;
  }

let now t = t.clock

(* (time, seq) lexicographic order: earlier time first, scheduling order
   breaking ties — the FIFO guarantee for equal timestamps. *)
let earlier t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let sq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- sq;
  let rn = t.runs.(i) in
  t.runs.(i) <- t.runs.(j);
  t.runs.(j) <- rn

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && earlier t l !smallest then smallest := l;
  if r < t.size && earlier t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0. in
  let seqs = Array.make cap 0 in
  let runs = Array.make cap no_run in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.runs 0 runs 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.runs <- runs

let push t ~time ~seq run =
  if t.size = Array.length t.times then grow t;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.runs.(i) <- run;
  t.size <- t.size + 1;
  sift_up t i

(* Pop the root event and run it (with the clock advanced to its time).
   The callback slot is cleared before growing the live region shrinks so
   the heap never retains a closure past its execution. *)
let pop_run t =
  let time = t.times.(0) in
  let run = t.runs.(0) in
  t.size <- t.size - 1;
  t.times.(0) <- t.times.(t.size);
  t.seqs.(0) <- t.seqs.(t.size);
  t.runs.(0) <- t.runs.(t.size);
  t.runs.(t.size) <- no_run;
  if t.size > 0 then sift_down t 0;
  t.clock <- time;
  t.processed <- t.processed + 1;
  run ()

(* Every time check below is written so that NaN fails it: a NaN time
   in the heap would become the clock when it pops, and every later
   comparison against a NaN clock is false, so nothing would fire again. *)
let schedule_at t ~time f =
  if Float.is_nan time then invalid_arg "Sim.schedule_at: time is NaN";
  let time = Float.max time t.clock in
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  push t ~time ~seq f

let schedule t ~delay f =
  if not (delay >= 0.) then invalid_arg "Sim.schedule: delay must be >= 0";
  schedule_at t ~time:(t.clock +. delay) f

let run_until t ~time =
  if Float.is_nan time then invalid_arg "Sim.run_until: time is NaN";
  let continue = ref true in
  while !continue && t.size > 0 do
    if t.times.(0) < time then pop_run t else continue := false
  done;
  t.clock <- Float.max t.clock time

let run t =
  while t.size > 0 do
    pop_run t
  done

let pending t = t.size
let processed t = t.processed
