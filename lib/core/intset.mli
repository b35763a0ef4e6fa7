(** Deduplicating set of integers (peer ids) backed by a sorted dynamic
    array: O(log k) membership, O(k) insert/remove shift, allocation-free
    ascending iteration.  Sized for replica lists, where k stays small
    and deterministic iteration order keeps the seeded experiments
    reproducible.

    {b Run kernels.}  The functions [run_*] work on a {e run}: [len]
    ascending, distinct ids at [data.(off) .. data.(off + len - 1)].  A
    set is the run at offset 0 of its own array, and each level of a
    routing table is a run in its overlay's arena ({!Node}); both go
    through these kernels.  Each raises [Invalid_argument] when a run it
    reads or writes does not fit in its array. *)

(** [run_rank data off len x] is the index of [x] in the run when it is
    a member, otherwise [lnot i], where [i] is the index at which [x]
    would be inserted.  O(log len). *)
val run_rank : int array -> int -> int -> int -> int

(** [run_insert data off len at x] shifts the run's ids from index [at]
    up by one and writes [x] at [at]: the run then has [len + 1] ids.
    [data.(off + len)] must be in the array. *)
val run_insert : int array -> int -> int -> int -> int -> unit

(** [run_delete data off len at] removes the id at index [at], shifting
    the later ids down by one: the run then has [len - 1] ids. *)
val run_delete : int array -> int -> int -> int -> unit

(** [run_fresh idata ioff ilen sdata soff slen] counts the ids of the
    second run missing from the first, in one linear pass. *)
val run_fresh : int array -> int -> int -> int array -> int -> int -> int

(** [run_merge data off ilen sdata soff slen n] merges the second run
    into the first in place, from the back, when [n] is [ilen] plus
    their {!run_fresh} count: the first run then holds [n] ids, the
    union.  The two runs must not overlap. *)
val run_merge : int array -> int -> int -> int array -> int -> int -> int -> unit

type t

(** [create ()] is an empty set; [capacity] pre-sizes the backing array. *)
val create : ?capacity:int -> unit -> t

val cardinal : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool

(** [get t i] is the [i]-th smallest member, [0 <= i < cardinal t]:
    with {!cardinal}, a scan that needs no closure. *)
val get : t -> int -> int

(** [rank t x] is the index of [x] (its {!get} position) when [x] is a
    member, otherwise [lnot i] (negative), where [i] is the index at
    which [x] would be inserted.  O(log k). *)
val rank : t -> int -> int

(** [add t x] inserts [x]; duplicates are ignored. *)
val add : t -> int -> unit

(** [remove t x] deletes [x] if present. *)
val remove : t -> int -> unit

val clear : t -> unit

(** Ascending-order iteration. *)
val iter : (int -> unit) -> t -> unit

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val exists : (int -> bool) -> t -> bool

(** [elements t] is the sorted member list. *)
val elements : t -> int list

val to_array : t -> int array

(** [blit t dst] writes the members in ascending order into
    [dst.(0) .. dst.(cardinal t - 1)].  Raises [Invalid_argument] when
    [dst] is shorter than [cardinal t]. *)
val blit : t -> int array -> unit

val of_list : int list -> t

(** [union_into ~into src] adds every member of [src] to [into] with a
    linear two-pointer merge, in place.  Allocates nothing when [src]
    adds no new member, and otherwise only when [into] must grow
    (capacity doubles). *)
val union_into : into:t -> t -> unit
