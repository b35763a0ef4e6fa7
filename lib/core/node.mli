(** One P-Grid peer: its partition path, level-wise routing table, key
    store and replica list.

    The routing table mirrors the trie structure (paper Section 2.1): for
    every bit position [l] of the node's path it holds one or more
    references to peers whose paths branch to the complementary subtree at
    [l].  Multiple references per level provide the redundancy that makes
    routing resilient under churn.

    Refs and replicas are deduplicating sorted integer sets ({!Intset}),
    so membership is O(log k) and merge-time exchange is linear.  The
    node additionally maintains an incremental count of stored keys whose
    bit at the current path level is 0 ({!zero_count}), which the
    construction engine uses to compute load fractions and the
    degenerate-bisection check without materializing key lists.

    {b The store.}  Only this module reads or writes a store and its
    version sidecar.  Reads: {!has_key}, {!lookup}, {!keys},
    {!key_count} and {!fold}, in table order.  Unversioned writes, as
    construction and repair move keys: {!insert}, {!insert_new},
    {!ensure_key}, {!merge_key}, {!add_postings}, {!merge_store},
    {!remove_payload}, {!remove_key}, {!cut_outside},
    {!drop_keys_outside} and {!clear_store}.  Versioned writes change
    the store and the sidecar together: {!put} and {!entomb}, plus
    {!note_write} where the caller made the store change.  The writes
    keep the zero-bit count ({!zero_count}) and the payload-key count
    ({!payload_key_count}) exact.

    {b Newest write wins.}  Replicas that disagree about a key settle it
    by {!newer}: the higher version wins, and a tombstone wins a tie.
    Reconciliation's vote, the health audit's newest-write scan and the
    maintenance rescues all compare through it.

    The record is [private]: every field reads as usual, but only this
    module writes one.  [meta] is private too, and the sidecar's type
    [vers] is abstract.  [store] still reads as a [Hashtbl] for one
    reason: the benchmark harness ([perf/workloads.ml]) iterates it, and
    that code is the benchmark's fixed yardstick.  Liveness ([online])
    is written only through {!set_online}, which keeps the {!census} the
    node belongs to exact. *)

type id = int

(** A liveness census: the exact number of offline nodes among the ones
    created with it.  Every node of one overlay shares one census (see
    [Overlay.create] and [Overlay.add_peer]), so the overlay knows in
    O(1) whether any peer is offline; routing's reference pick skips its
    liveness scan while none is. *)
type census

(** [census ()] is a fresh census with no offline node. *)
val census : unit -> census

(** [offline c] is the number of offline nodes counted by [c]. *)
val offline : census -> int

(** Per-key write metadata, the sidecar the reconciliation layer reads
    (see {!Reconcile}): a monotone overlay-wide write version, a
    tombstone flag for routed deletes, and the simulated time of the
    last write (used only to age tombstones out).  A key with no meta
    entry is implicitly [(version 0, alive)] — the state of everything
    written before versioning existed, so legacy behaviour is the
    zero-metadata case, not a special case.  Recorded versions start at
    1, as [Overlay.clock] does, so a recorded entry always outranks a
    missing one; the versioned writes below raise [Invalid_argument] on
    a version below 1. *)
type meta = private { mutable version : int; mutable dead : bool; mutable stamp : float }

(** A node's version sidecar, keyed like the store. *)
type vers

type t = private {
  id : id;
  mutable path : Pgrid_keyspace.Path.t;
  mutable refs : Intset.t array;
      (** [refs.(l)]: peers in the complement at level [l]; the array has
          at least [Path.length path] used slots *)
  store : (Pgrid_keyspace.Key.t, string list) Hashtbl.t;
      (** key -> payloads (e.g. posting lists); multiple payloads per key,
          kept sorted and duplicate-free so mutation is a single early-exit
          pass.  Read it through {!fold} and the functions below. *)
  vers : vers;
      (** version/tombstone sidecar; a dead entry may outlive its store
          key (that is the tombstone) *)
  replicas : Intset.t;  (** known peers sharing this node's path *)
  mutable online : bool;  (** written only by {!set_online} *)
  census : census;  (** shared with the other nodes of the node's overlay *)
  mutable zero_keys : int;
      (** distinct stored keys with bit 0 at level [Path.length path], or
          [-1] while stale after a path change; maintained incrementally,
          read via {!zero_count} *)
  mutable payload_keys : int;
      (** stored keys with a non-empty posting list; maintained
          incrementally, read via {!payload_key_count} *)
}

(** [create ~id] starts online, at the root path, with an empty store,
    counted by a census of its own. *)
val create : id:id -> t

(** [create_in census ~id] is {!create}, counted by [census]. *)
val create_in : census -> id:id -> t

(** [set_online t v] sets [t]'s liveness and keeps its census exact;
    setting the value it already has changes nothing. *)
val set_online : t -> bool -> unit

(** [insert t key payload] records [payload] under [key]; duplicate
    payloads under the same key are ignored. *)
val insert : t -> Pgrid_keyspace.Key.t -> string -> unit

(** [insert_new t key payload] is {!insert} but reports whether the
    payload was actually new (callers count transferred payloads). *)
val insert_new : t -> Pgrid_keyspace.Key.t -> string -> bool

(** [remove_payload t key payload] deletes one payload from [key]'s
    posting list, reporting whether it was present.  The key itself stays
    (possibly with an empty posting list) — payload-less keys are
    first-class, so posting-list cleanup never destroys key presence;
    use {!remove_key} to drop the key outright. *)
val remove_payload : t -> Pgrid_keyspace.Key.t -> string -> bool

(** [ensure_key t key] records [key] in the store (with no payload) if it
    is absent — construction moves keys around without touching
    application payloads. *)
val ensure_key : t -> Pgrid_keyspace.Key.t -> unit

(** [merge_key t key payloads] is {!ensure_key} followed by {!insert} of
    each payload, in one probe when [key] is new; it reports whether
    [key] was absent.  [payloads] must be sorted and duplicate-free, as
    every posting list read from a store is. *)
val merge_key : t -> Pgrid_keyspace.Key.t -> string list -> bool

(** [remove_key t key] deletes [key] and its payloads if present. *)
val remove_key : t -> Pgrid_keyspace.Key.t -> unit

(** [clear_store t] empties the store {e and} the version sidecar — a
    crash wipes the disk, tombstones included (delete durability comes
    from replication, never from one node). *)
val clear_store : t -> unit

(** [add_postings t key payloads] is {!ensure_key} followed by
    {!insert_new} of each payload, in order; it returns how many payloads
    were new.  [payloads] need not be sorted. *)
val add_postings : t -> Pgrid_keyspace.Key.t -> string list -> int

(** [merge_store t ~from] merges every key of [from]'s store, with its
    payloads, into [t]'s by {!merge_key}, in [from]'s table order; it
    returns how many keys were new to [t].  The version sidecar is not
    copied. *)
val merge_store : t -> from:t -> int

(** [meta t key] is the version sidecar entry, if any. *)
val meta : t -> Pgrid_keyspace.Key.t -> meta option

(** [newer a b] holds when the write [a] outranks the write [b]: a higher
    version, or the same version with [a] a tombstone and [b] not.
    [None] reads as [(version 0, alive)]. *)
val newer : meta option -> meta option -> bool

(** [is_tombstone m] holds for a dead entry. *)
val is_tombstone : meta option -> bool

(** [put t key payload ~version ~stamp] is {!insert} plus a live write at
    [version], clearing any tombstone. *)
val put : t -> Pgrid_keyspace.Key.t -> string -> version:int -> stamp:float -> unit

(** [entomb t key ~version ~stamp] removes [key] if present and records a
    tombstone at [version], even where the key was absent (a tombstone
    outvotes stale copies that resurface later); it reports whether the
    key was present. *)
val entomb : t -> Pgrid_keyspace.Key.t -> version:int -> stamp:float -> bool

(** [note_write t key ~version ~stamp] records a live write at [version],
    clearing any tombstone; the store is left as it is. *)
val note_write : t -> Pgrid_keyspace.Key.t -> version:int -> stamp:float -> unit

(** [meta_fold t f acc] folds over the sidecar entries, tombstones
    included. *)
val meta_fold : t -> (Pgrid_keyspace.Key.t -> meta -> 'a -> 'a) -> 'a -> 'a

(** [tombstone_count t] counts dead sidecar entries (the node's
    tombstone debt). *)
val tombstone_count : t -> int

(** [purge_tombstones t ~horizon] drops the tombstones stamped at or
    before [horizon] and returns how many it dropped. *)
val purge_tombstones : t -> horizon:float -> int

(** [has_key t key] tests presence regardless of payloads. *)
val has_key : t -> Pgrid_keyspace.Key.t -> bool

(** [lookup t key] is the sorted payload list under [key] (empty when
    absent). *)
val lookup : t -> Pgrid_keyspace.Key.t -> string list

(** [keys t] lists distinct stored keys (unspecified order). *)
val keys : t -> Pgrid_keyspace.Key.t list

(** [fold t f acc] folds [f key payloads] over the store, in the table's
    own order. *)
val fold : t -> (Pgrid_keyspace.Key.t -> string list -> 'a -> 'a) -> 'a -> 'a

(** [key_count t] is the number of distinct keys stored. *)
val key_count : t -> int

(** [zero_count t] is the number of distinct stored keys whose bit at
    level [Path.length t.path] is 0 (0 when the path exhausts the key
    width).  O(1), kept exact by the mutators above, except for the first
    read after a {!set_path} not followed by {!cut_outside}: that read
    recounts the store. *)
val zero_count : t -> int

(** [payload_key_count t] is the number of stored keys whose posting
    list is non-empty.  O(1); kept exact by the mutators. *)
val payload_key_count : t -> int

(** [add_ref t ~level peer] records a routing reference, growing the table
    as needed; duplicates and self-references are ignored. Requires
    [level >= 0]. *)
val add_ref : t -> level:int -> id -> unit

(** [refs_at t ~level] is the sorted (possibly empty) reference list at
    [level].  Allocates; hot paths should use {!refs_fold}/{!refs_iter}. *)
val refs_at : t -> level:int -> id list

val refs_count : t -> level:int -> int

(** [refs_array t ~level] is a fresh array of the references at [level]
    (callers may permute it freely). *)
val refs_array : t -> level:int -> id array
val refs_iter : t -> level:int -> (id -> unit) -> unit
val refs_fold : t -> level:int -> ('a -> id -> 'a) -> 'a -> 'a
val has_ref : t -> level:int -> id -> bool
val remove_ref : t -> level:int -> id -> unit

(** [set_refs t ~level peers] replaces the reference set at [level]
    (self-references are dropped). *)
val set_refs : t -> level:int -> id list -> unit

(** [union_refs t ~level ~from] adds all of [from]'s references at
    [level] to [t]'s with one linear merge (self-references dropped). *)
val union_refs : t -> level:int -> from:t -> unit

(** [reset_refs t ~capacity] discards the whole routing table, leaving
    at least [capacity] empty levels. *)
val reset_refs : t -> capacity:int -> unit

(** [set_path t path] updates the node's partition path.  The zero-bit
    count for the new level is recomputed lazily: by {!cut_outside}, or
    by the next {!zero_count}. *)
val set_path : t -> Pgrid_keyspace.Path.t -> unit

(** [add_replica t peer] records a same-partition replica (idempotent,
    never records the node itself). *)
val add_replica : t -> id -> unit

(** [absorb_replicas t src] unions [src] into [t]'s replica set with one
    linear merge (and never records [t] itself). *)
val absorb_replicas : t -> Intset.t -> unit

(** [replica_list t] is the sorted replica list. *)
val replica_list : t -> id list

val replica_count : t -> int

(** [remove_replica t peer] forgets [peer] as a replica. *)
val remove_replica : t -> id -> unit

val clear_replicas : t -> unit

(** [cut_outside t path] removes the stored keys not matching [path] and
    returns them with their payloads, in reverse store-iteration order;
    the version sidecar is untouched.  One pass over the store, which
    also recounts {!zero_count} over the keys it keeps. *)
val cut_outside :
  t -> Pgrid_keyspace.Path.t -> (Pgrid_keyspace.Key.t * string list) list

(** [drop_keys_outside t path] removes stored keys (and sidecar entries,
    tombstones included) not matching [path] — performed after a split
    hands the complement's keys over — and returns the number of
    distinct store keys dropped. *)
val drop_keys_outside : t -> Pgrid_keyspace.Path.t -> int

(** [responsible_for t key] tests whether the node's partition covers
    [key]. *)
val responsible_for : t -> Pgrid_keyspace.Key.t -> bool
