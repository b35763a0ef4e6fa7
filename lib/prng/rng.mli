(** Deterministic, splittable pseudo-random number generator.

    The generator is xoshiro256++ seeded through splitmix64, which gives
    high-quality 64-bit streams from arbitrary integer seeds.  Every
    experiment in this repository threads an explicit [t] so that all
    simulations are reproducible from a single seed.  [split] derives an
    independent child stream, which lets per-peer generators be created
    without correlation between peers.

    The state is four unboxed 64-bit words in one buffer, always 32
    bytes long: only {!create}, {!copy} and {!split} make a [t], so
    every draw reads and writes the words without a bounds check.
    {!int}, {!bool}, {!bernoulli} and the int shuffles allocate nothing,
    and {!bits64} and {!float} allocate only the box of their result.
    {!shuffle_ints} also needs no write barrier, as its swaps store
    ints; {!shuffle} works on any array, so its swaps go through the
    barrier.  Known-answer vectors in the test suite pin the stream of
    every draw function. *)

type t

(** [create ~seed] returns a fresh generator deterministically derived from
    [seed]. Equal seeds give equal streams. *)
val create : seed:int -> t

(** [copy t] is an independent snapshot of the current state: advancing the
    copy does not advance [t]. *)
val copy : t -> t

(** [split t] advances [t] and returns a child generator whose stream is
    (statistically) independent of the remainder of [t]'s stream. *)
val split : t -> t

(** [bits64 t] returns the next raw 64-bit output. *)
val bits64 : t -> int64

(** [float t] is uniform in [0, 1) with 53-bit resolution. *)
val float : t -> float

(** [int t n] is uniform in [0, n-1]. Requires [n > 0]; unbiased via
    rejection sampling. *)
val int : t -> int -> int

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [bernoulli t p] is [true] with probability [p] (clamped to [0, 1]). *)
val bernoulli : t -> float -> bool

(** [pick t arr] returns a uniformly random element of [arr].
    @raise Invalid_argument if [arr] is empty. *)
val pick : t -> 'a array -> 'a

(** [pick_list t l] returns a uniformly random element of the non-empty list
    [l]. @raise Invalid_argument if [l] is empty. *)
val pick_list : t -> 'a list -> 'a

(** [shuffle t arr] permutes [arr] in place (backward Fisher-Yates:
    for [i] from [length arr - 1] down to 1, swap [arr.(i)] with
    [arr.(int t (i + 1))]).  It is for arrays of boxed values, such as
    keys; on an [int array], {!shuffle_ints} gives the same permutation
    faster. *)
val shuffle : t -> 'a array -> unit

(** [shuffle_ints t arr] is [shuffle t arr] for ints, draw for draw: the
    same permutation and the same state afterwards.  It holds the
    generator's state in registers for the whole permutation and stores
    it once. *)
val shuffle_ints : t -> int array -> unit

(** [shuffle_ints_prefix t arr ~len] permutes [arr.(0) .. arr.(len - 1)]
    as {!shuffle_ints} permutes a fresh array of those [len] values,
    draw for draw, and leaves the rest of [arr] as it was: a caller can
    reuse one buffer for candidate lists of any length up to its size.
    Raises [Invalid_argument] unless [0 <= len <= length arr]. *)
val shuffle_ints_prefix : t -> int array -> len:int -> unit

(** [sample_without_replacement t ~k ~n] draws [k] distinct integers from
    [0, n-1], in random order. Requires [0 <= k <= n]. *)
val sample_without_replacement : t -> k:int -> n:int -> int array
