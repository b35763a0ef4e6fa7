(** Deduplicating set of integers (peer ids) backed by a sorted dynamic
    array: O(log k) membership, O(k) insert/remove shift, allocation-free
    ascending iteration.  Sized for routing-table levels and replica
    lists, where k stays small and deterministic iteration order keeps
    the seeded experiments reproducible. *)

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
