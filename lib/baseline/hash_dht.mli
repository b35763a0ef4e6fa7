(** A classic uniform-hashing DHT (Chord-style ring with finger tables) —
    the related-work baseline the paper contrasts order-preserving
    overlays against (Section 6).

    Keys are placed by uniform hashing, which balances load for free but
    destroys key order; range predicates then need an *additional* index
    on top (see {!Pht}).  The model here is message-accurate for routing:
    every lookup reports the number of greedy finger hops a real Chord
    ring would take (O(log n)). *)

type t

(** [create rng ~nodes] places [nodes] peers at uniform ring positions
    and builds their finger tables. Requires [nodes >= 1]. *)
val create : Pgrid_prng.Rng.t -> nodes:int -> t

val size : t -> int

(** [hash_string s]: the uniform placement hash (64-bit mix truncated
    to ring width). *)
val hash_string : string -> int

(** [responsible t ~hash] is the node index owning ring position [hash]
    (its successor on the ring). *)
val responsible : t -> hash:int -> int

(** [lookup t ~from ~hash] greedily routes from node [from] to the owner
    of [hash] over finger tables; returns (owner, hops). *)
val lookup : t -> from:int -> hash:int -> int * int

(** [mean_lookup_hops t ~samples ~rng] measures the average hop count of
    random lookups — the O(log n) the baseline pays per access. *)
val mean_lookup_hops : t -> samples:int -> rng:Pgrid_prng.Rng.t -> float
