(** Trie paths: the bit string identifying a key-space partition.

    Recursively bisecting [0, 1) induces a binary trie; a partition is
    identified by the sequence of left/right (0/1) decisions from the root.
    A peer's [path] in P-Grid is exactly such a bit string.  A path is
    an immediate int, its own {!code}: its bits (at most {!Key.bits} of
    them) below a marker bit whose position is the length.  Comparisons
    and prefix tests are O(1), and storing or reading a path touches no
    block.  Order paths with {!compare}, not the polymorphic one: that
    orders the codes, shorter paths first. *)

type t [@@immediate]

(** The root path (empty bit string), denoting the whole key space. *)
val root : t

(** [length p] is the number of bits. *)
val length : t -> int

(** [extend p b] appends bit [b] (0 or 1).
    @raise Invalid_argument if [b] is not a bit or the path is full. *)
val extend : t -> int -> t

(** [bit p i] is the i-th bit, [i = 0] first. Requires [0 <= i < length p]. *)
val bit : t -> int -> int

(** [parent p] drops the last bit. @raise Invalid_argument on [root]. *)
val parent : t -> t

(** [prefix p n] is the first [n] bits. Requires [0 <= n <= length p]. *)
val prefix : t -> int -> t

(** [sibling p] flips the last bit. @raise Invalid_argument on [root]. *)
val sibling : t -> t

(** [complement_at p level] is [prefix p (level+1)] with its last bit
    flipped: the partition a level-[level] routing reference must point
    into. Requires [0 <= level < length p]. *)
val complement_at : t -> int -> t

(** [is_prefix_of ~prefix p] tests bit-string prefix containment
    (every path is a prefix of itself). *)
val is_prefix_of : prefix:t -> t -> bool

(** [diverges_from ~prefix ~len p], where [len = length prefix], is
    [true] iff [p] has at least [len] bits and does not begin with
    [prefix]: [not (is_prefix_of ~prefix p) && length p >= len], with
    one length computed instead of three. *)
val diverges_from : prefix:t -> len:int -> t -> bool

(** [common_prefix_length a b] is the length of the longest shared
    prefix.  O(1). *)
val common_prefix_length : t -> t -> int

(** [msb x] is the index of the highest set bit of [x > 0] (bit 0 the
    least significant); paths and keys fit its 63-bit range.  The first
    difference of two bit strings packed first-bit-high is the [msb] of
    their xor. *)
val msb : int -> int

(** [matches_key p k] tests whether key [k] lies in partition [p], i.e. [p]
    is a prefix of [k]'s binary expansion. *)
val matches_key : t -> Key.t -> bool

(** [key_prefix k n] is the partition given by the first [n] bits of [k]. *)
val key_prefix : Key.t -> int -> t

(** [interval p] is the dyadic interval ([lo] inclusive, [hi] exclusive)
    covered by [p], as floats; [interval_keys p] the same as keys, where
    [hi] is the exclusive upper bound ([Key.to_int hi] may equal 2^bits,
    hence plain ints are returned). *)
val interval : t -> float * float

val interval_keys : t -> int * int

(** [width p] is the measure of [interval p], i.e. 2^-length. *)
val width : t -> float

(** [overlap_fraction ~of_:q k] is |I(q) ∩ I(k)| / |I(q)|: 1 when [k] is a
    prefix of [q]; 2^(length q − length k) when [q] is a strict prefix of
    [k]; 0 when disjoint. *)
val overlap_fraction : of_:t -> t -> float

(** [mid p] is the key at the midpoint of [p]'s interval (the next
    bisection point). *)
val mid : t -> Key.t

(** Lexicographic order on bit strings with the prefix ordered first:
    the order [String.compare] gives on {!to_string}.  A path's strict
    descendants directly follow it in this order.  O(1). *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** [code p] is [bits lor (1 lsl length p)], where [bits] reads [p] as
    a binary number, first bit most significant.  The marker bit above
    the path makes it injective: [code p = code q] iff [equal p q].  The
    code of [key_prefix k n] is therefore
    [(Key.to_int k lsr (Key.bits - n)) lor (1 lsl n)], which lets a
    caller key tables by path without building a [t] per prefix. *)
val code : t -> int

val to_string : t -> string

(** [of_string s] parses a string of ['0']/['1'].
    @raise Invalid_argument on other characters or overlong strings. *)
val of_string : string -> t

val pp : Format.formatter -> t -> unit

(** [enumerate_leaves depth] lists all 2^depth paths of length [depth] in
    key order — handy for exhaustive tests. *)
val enumerate_leaves : int -> t list
