(** The P-Grid overlay network: a population of {!Node}s with prefix
    routing, range search, replica-aware insertion and integrity checks.

    The overlay is the paper's primary artifact: a trie-structured,
    order-preserving distributed index.  This module implements its
    *operational* behaviour (searching, inserting, syncing); how peers
    obtain their paths and routing tables is the job of the construction
    engines ([Pgrid_construction]) or the {!Builder}. *)

(** Peer storage is an arena: a preallocated dense array indexed by peer
    id, grown by doubling, so [node] is a plain array read and ids are
    stable across growth. *)
type t

(** [create rng ~n] makes [n] nodes, all at the root path, ids [0..n-1],
    sharing one {!Node.census}. *)
val create : Pgrid_prng.Rng.t -> n:int -> t

(** [add_peer t] appends a fresh online node at the root path with the
    next dense id ([size t] before the call), counted by the overlay's
    census, and returns it.  Existing ids remain valid across the
    capacity doublings this triggers. *)
val add_peer : t -> Node.t

val size : t -> int
val node : t -> Node.id -> Node.t

(** What a subscriber needs to keep derived state (query caches,
    secondary indexes) coherent.  Deliberately coarse-grained:
    {ul
    {- [Peer_changed id] — the peer's path, store or references changed;
       anything cached {e about} it is suspect.}
    {- [Key_written k] — a routed insert/delete reached [k]'s
       responsible peer(s); cached answers for [k] are stale.}
    {- [Flush] — a bulk mutation (global anti-entropy) not worth
       itemizing; drop everything.}} *)
type change = Peer_changed of Node.id | Key_written of Pgrid_keyspace.Key.t | Flush

(** [subscribe t f] registers [f] to be called on every subsequent
    {!notify}.  Subscribers must not mutate the overlay re-entrantly.
    With no subscribers the overlay behaves exactly as before — no RNG
    draw, no allocation — so experiment outputs are unchanged. *)
val subscribe : t -> (change -> unit) -> unit

(** [notify t c] informs subscribers of [c].  Exposed so the layers that
    re-home peers outside this module (balancing, maintenance,
    reconciliation) can report their own mutations. *)
val notify : t -> change -> unit

(** [iter t f] applies [f] to every node in id order. *)
val iter : t -> (Node.t -> unit) -> unit

(** [online_count t] is the number of online nodes: O(1), [size t]
    minus the census's offline count. *)
val online_count : t -> int

(** [compact_refs t] closes the gaps in the routing arena that [t]'s
    nodes share ({!Node.compact_refs}): once after a construction, when
    the tables stop growing.  No read can tell. *)
val compact_refs : t -> unit

(** Outcome of a routed lookup. *)
type search_result = {
  responsible : Node.id option;  (** [None]: routing failed (dead refs) *)
  hops : int;  (** number of forwardings *)
  key_present : bool;  (** the responsible peer stores the key *)
  payloads : string list;  (** data found at the responsible peer *)
  dead_end : (Node.id * int) option;
      (** on failure: the peer whose reference level had no online entry
          (the trigger for correction-on-use repair) *)
}

(** [search ?admit t ~from key] routes bit-by-bit from [from]: while the
    current node's path disagrees with [key] at some level [l], the query
    is forwarded to a (random, online) level-[l] reference ({!walk}).
    Fails at a level with no online reference, or with
    [hops = max_hops + 1] and no [dead_end] when the budget is spent.
    Offline [from] fails immediately with 0 hops.

    [admit src dst] (default: always [true]) vetoes individual edges —
    the hook through which a live network partition constrains routing
    ({!Pgrid_simnet.Fault.connected}).  It must be pure: {!eligible}
    calls it once per online reference and its answer decides the draw,
    so an [admit] that drew randomness or kept state would change the
    walk.  Omitting it changes no RNG draw. *)
val search :
  ?admit:(Node.id -> Node.id -> bool) ->
  t ->
  from:Node.id ->
  Pgrid_keyspace.Key.t ->
  search_result

(** [divergence_level path key] is the first level at which [path]
    disagrees with [key], or [None] when [path] is a prefix of [key]
    (the node is responsible).  O(1): the highest set bit of the xor of
    [Path.code path] and the code of [key]'s prefix of the same length. *)
val divergence_level :
  Pgrid_keyspace.Path.t -> Pgrid_keyspace.Key.t -> int option

(** [eligible ?admit t ~src ~excluding set] is the number of members
    of [set] that are online, differ from [excluding] and pass
    [admit src] (pure, as for {!search}; called once per online member
    other than [excluding]).  It keeps them, in ascending order, for the
    next {!draw}.  {!pick} is the pair for a reference level; only
    construction's replica contact, whose coin flip sits between the
    count and the draw, calls the two itself.

    While no peer of [t] is offline and there is no [admit], it reads no
    node: the count is [Intset.cardinal set], less one when [excluding]
    is a member (found with [Intset.rank]), and {!draw} maps its rank
    straight to the member, stepping over [excluding].  Otherwise it
    copies [set] into a buffer and makes one closure-free pass over the
    copy.  Both give the same count, the same draw and the same member.
    {!pick} runs the same kernel on a level's run of references
    ({!Node.refs_count}, {!Node.refs_rank}, {!Node.refs_nth},
    {!Node.refs_blit}). *)
val eligible :
  ?admit:(Node.id -> Node.id -> bool) ->
  t ->
  src:Node.id ->
  excluding:Node.id ->
  Intset.t ->
  int

(** [draw t rng n] makes one [Rng.int rng n] draw and returns that
    member of the ones the last {!eligible} kept; [n] must be its
    positive result.  Together they make the draw and the choice of a
    count-then-scan: count the eligible members, draw a rank, scan to
    it.  O(1). *)
val draw : t -> Pgrid_prng.Rng.t -> int -> Node.id

(** [pick ?admit t rng n ~level ~excluding] is the count-then-scan
    reference choice: a uniform draw on [rng] ({!eligible}, then
    {!draw}) among [n]'s references at [level] that are online, differ
    from [excluding] (-1: none) and pass [admit].  [-1], with no draw,
    when there is none.  Every routed step ({!walk}, {!forward}) and
    construction's referrals and reference copies choose with it. *)
val pick :
  ?admit:(Node.id -> Node.id -> bool) ->
  t ->
  Pgrid_prng.Rng.t ->
  Node.t ->
  level:int ->
  excluding:Node.id ->
  Node.id

(** [shuffled_refs rng n ~level into] copies [n]'s references at
    [level] into the first slots of [into], shuffles them there on [rng]
    ({!Pgrid_prng.Rng.shuffle_ints_prefix}, the draws of
    {!Pgrid_prng.Rng.shuffle_ints} on a fresh array) and returns their
    count: the candidates of a shuffle-then-try hop, which tries them
    in order and learns liveness from the answers instead of reading
    it.  The caller owns [into] and reuses it from hop to hop, so a hop
    allocates nothing; the copy does not change when [n]'s references
    do.  [into] must hold at least [Node.refs_count n ~level] ids
    ([Invalid_argument] otherwise).  Only [Net_engine]'s legacy query
    walk shuffles this way, which keeps fig7-9 and table1 as recorded;
    [Storm] draws its candidates one at a time with {!draw_candidate}. *)
val shuffled_refs : Pgrid_prng.Rng.t -> Node.t -> level:int -> Node.id array -> int

(** [draw_candidate rng into ~drawn ~len] is one step of a partial
    Fisher-Yates shuffle of [into.(0 .. len - 1)]: it swaps a uniform
    member of the untried [into.(drawn .. len - 1)] into [into.(drawn)]
    and returns it, with one [Rng.int rng (len - drawn)] (no draw when
    one candidate is left).  The draw-then-try hop's choice: a caller
    that copies a level's references ({!Node.refs_blit}) and draws at
    [drawn] = 0, 1, 2, ... as it needs candidates reveals a uniformly
    random ordering of the level, one try at a time, and pays one draw
    per try instead of [len - 1] for the whole level.  Positions below
    [drawn] are left as they are.  Raises [Invalid_argument] unless
    [0 <= drawn < len <= Array.length into]. *)
val draw_candidate : Pgrid_prng.Rng.t -> Node.id array -> drawn:int -> len:int -> Node.id

(** [random_online t rng ~excluding] draws peer ids uniformly
    ([Rng.int rng (size t)] per try) until one is online and differs
    from [excluding] (-1: none), giving up after [4 * size t] tries
    with [-1].  The one random-peer sampler: query origins and
    construction's random contacts. *)
val random_online : t -> Pgrid_prng.Rng.t -> excluding:Node.id -> Node.id

(** [rng t] is the generator {!search} and {!forward} draw on. *)
val rng : t -> Pgrid_prng.Rng.t

(** {!search}'s budget: it fails on reaching a peer after
    [max_hops + 1] forwards ([max_hops = 2 * Key.bits]). *)
val max_hops : int

(** The budget of the walks that relay a message peer to peer (storm
    queries, the network engine's legacy walk, sequential joins):
    [4 * Key.bits].  Not {!max_hops}: a walk that cycles on a wrong
    reference would stop at another hop. *)
val max_relay_hops : int

(** What a {!walk}'s [visit] hook says at a peer it would forward from:
    take the step, take it after counting one wasted hop (with no budget
    check in between), or stop there. *)
type 'a visit = Forward | Forward_charged | Stop of 'a

(** Why a {!walk} ended at [at]: [at] is responsible for the key, has
    no usable reference at the level, was reached with the budget
    spent, or [visit] stopped the walk. *)
type 'a stop = Responsible | Dead_end of int | Spent | Stopped of 'a

type 'a walk = { stop : 'a stop; at : Node.t; hops : int }

(** [walk t rng start key ~budget ~visit] is the synchronous walk toward
    [key] that {!search}, cached lookups, sequential joins and
    construction's key hand-overs share.  At each peer: stop if [budget]
    hops are counted, or if the peer is responsible; else ask [visit],
    then {!pick} on [rng] among the references at the divergence level.
    [start] may be offline.  With [rng t] and a [visit] that always
    forwards, each hop is one {!forward}, draw for draw. *)
val walk :
  t ->
  Pgrid_prng.Rng.t ->
  Node.t ->
  Pgrid_keyspace.Key.t ->
  budget:int ->
  visit:(Node.t -> 'a visit) ->
  'a walk

(** [forward ?admit t cur key] is one {!walk} step on [rng t]:
    [`Responsible], [`Next] a {!pick} at the divergence level, or
    [`Dead_end level].  For loops that are not one walk: batched
    lookups, which fork at each divergence, and single-step timing. *)
val forward :
  ?admit:(Node.id -> Node.id -> bool) ->
  t ->
  Node.t ->
  Pgrid_keyspace.Key.t ->
  [ `Responsible | `Dead_end of int | `Next of Node.id ]

(** Outcome of a range query. *)
type range_result = {
  visited : Node.id list;  (** distinct responsible peers, in key order *)
  total_hops : int;
  matches : (Pgrid_keyspace.Key.t * string list) list;  (** in key order *)
}

(** [range_search t ~from ~lo ~hi] is the sequential "shower": route to
    the partition containing [lo], collect, then hop to the next adjacent
    partition until [hi] is passed.  Order preservation makes each
    subsequent partition reachable in few hops. *)
val range_search :
  t ->
  from:Node.id ->
  lo:Pgrid_keyspace.Key.t ->
  hi:Pgrid_keyspace.Key.t ->
  range_result

(** [insert ?admit ?stamp t ~from key payload] routes to the responsible
    peer and stores the payload there and at its known replicas (those
    [admit] lets it reach). Returns the hop count, or [None] if routing
    failed.  Every successful insert takes the overlay's next write
    version and records it (with [stamp], default 0, the wall time used
    only to age tombstones) in each written node's sidecar. *)
val insert :
  ?admit:(Node.id -> Node.id -> bool) ->
  ?stamp:float ->
  t ->
  from:Node.id ->
  Pgrid_keyspace.Key.t ->
  string ->
  int option

(** Outcome of a routed delete. *)
type delete_result = {
  hops : int;  (** routing cost, as for {!search} *)
  removed : int;  (** copies removed across the replica group *)
}

(** [delete t ~from ?payload key] routes to the responsible peer and
    removes data there and at its online replicas covering the key —
    the write-path dual of {!insert}, and the transaction layer's
    abort/undo primitive.  With [payload] only that posting is removed
    (the key survives, possibly with an empty posting list); without it
    the whole key is dropped.  Deleting something absent is a clean
    no-op ([removed = 0]).  [None] iff routing failed.

    A whole-key delete writes a {e tombstone} (a dead sidecar entry at
    the overlay's next write version, stamped [stamp]) at the
    responsible peer and every replica it reaches — including ones that
    never held the key — so stale copies resurfacing after a partition
    or crash are outvoted by {!Reconcile} instead of resurrected.
    [admit] as for {!search}. *)
val delete :
  ?admit:(Node.id -> Node.id -> bool) ->
  ?stamp:float ->
  t ->
  from:Node.id ->
  ?payload:string ->
  Pgrid_keyspace.Key.t ->
  delete_result option

(** [anti_entropy t] reconciles replicas: the online members of each
    partition of the index exchange missing keys (union of their
    stores, built over the members in descending id order). Returns the
    number of (key, payload) pairs copied — the paper's
    replica-synchronization step. Offline nodes participate neither as
    source nor target. *)
val anti_entropy : t -> int

(** [anti_entropy_pair t ~a ~b ~budget] is the incremental, pairwise form
    of {!anti_entropy} the maintenance daemon runs: [a] and [b] exchange
    missing (key, payload) pairs — payload-less keys count one each —
    stopping after [budget] copies, and record each other as replicas.
    Returns the number of copies made; 0 when [a = b], either side is
    offline, or their paths differ.

    Both forms are pure union: a delete concurrent with a stale copy is
    {e resurrected} by them.  {!Reconcile.sync_pair} is the
    version-aware replacement. *)
val anti_entropy_pair : t -> a:Node.id -> b:Node.id -> budget:int -> int

(** [clock t] is the overlay's write clock: the version handed to the
    most recent routed insert/delete (0 before any). *)
val clock : t -> int

(** [paths t] is every online node's current path. *)
val paths : t -> Pgrid_keyspace.Path.t list

(** One partition of a {!census}. *)
type partition = {
  path : Pgrid_keyspace.Path.t;
  members : Node.id list;  (** online members, ascending *)
  offline : int;  (** offline members *)
}

(** [census ?excluding t] groups every node but [excluding] (default:
    none) by path: one entry per distinct path, in
    {!Pgrid_keyspace.Path.compare} order, so a path's strict descendants
    directly follow it.  A partition whose members are all offline is
    listed with [members = []].  The order is the one a sort on
    [Path.to_string] gives, which keeps every census-driven decision
    (balancing, repair, recruiting) deterministic per seed.

    The census is read from the overlay's partition index (below), which
    is refreshed first.  A refresh costs O(c log c) for the c peers whose
    path, liveness or key count changed since the last one, plus the
    members of the partitions they left or joined, plus O(p) for the p
    partitions when one appears or disappears; reading the list costs
    O(p), and [excluding] adds the members of its own partition. *)
val census : ?excluding:Node.id -> t -> partition list

(** {2 The partition index}

    The overlay keeps every partition of its {!census}, in the same
    order, with its {e load}: the largest {!Node.key_count} among its
    online members (replicas converge on one key set, so the largest
    store is the partition's effective storage load), or 0 when none is
    online.  Only {!Node}'s writes change a path, a liveness or a store,
    and each lists its node in the census the overlay's nodes share
    ({!Node.take_changed}), so the index is brought up to date from the
    changed peers alone.  {!census} and {!partitions} refresh it; the
    slot readers below read it as that refresh left it. *)

(** [partitions t] refreshes the index and returns its number of
    partitions, which occupy slots [0] to [partitions t - 1] in path
    order. *)
val partitions : t -> int

(** [partition t i] is the partition in slot [i].
    @raise Invalid_argument when there is no slot [i]. *)
val partition : t -> int -> partition

(** [load t i] is the load of the partition in slot [i].
    @raise Invalid_argument when there is no slot [i]. *)
val load : t -> int -> int

(** [offline_members t i] is slot [i]'s offline members, ascending (the
    ids its [offline] counts), and [alive t i] its online members plus
    the offline ones whose store is not empty (a killed peer's store is
    wiped).  @raise Invalid_argument when there is no slot [i]. *)
val offline_members : t -> int -> Node.id list

val alive : t -> int -> int

(** The readers below refresh the index first.

    [find t path] is the slot of the partition at [path], or [-1]. *)
val find : t -> Pgrid_keyspace.Path.t -> int

(** [subtree t path] is the slot range [(first, past)] of the partitions
    at or below [path], which are contiguous in path order: two binary
    searches. *)
val subtree : t -> Pgrid_keyspace.Path.t -> int * int

(** Is a prefix inhabited by an online peer?  [inhabited_below t prefix]
    asks for one at or below [prefix] (the slots of {!subtree} up to the
    first with an online member); {!integrity_errors} reads it, and it
    is the paper's referential integrity: a level whose complement holds
    a peer needs a reference into it.  [inhabited_around] also counts a
    peer above [prefix] (one {!find} per strict ancestor); {!Health.check}
    reads it.  The two differ only on a trie that is not prefix-free,
    where one inhabited path is a strict prefix of another. *)
val inhabited_below : t -> Pgrid_keyspace.Path.t -> bool

val inhabited_around : t -> Pgrid_keyspace.Path.t -> bool

(** [online_below t prefix ~excluding] is the online peers at or below
    [prefix] other than [excluding] (-1: none), in descending id order,
    the order {!Maintenance}'s seeded refills index. *)
val online_below : t -> Pgrid_keyspace.Path.t -> excluding:Node.id -> Node.id list

(** [online_covering t key] is the online peers whose path is a prefix
    of [key] (those {!Node.responsible_for} it), ascending: one {!find}
    per prefix length. *)
val online_covering : t -> Pgrid_keyspace.Key.t -> Node.id list

(** [load_of t members] is the load of a partition with the online
    members [members]: the largest {!Node.key_count} among them. *)
val load_of : t -> Node.id list -> int

(** Structural statistics used across the experiments. *)
type stats = {
  peers : int;
  partitions : int;  (** distinct paths among online peers *)
  mean_path_length : float;
  max_path_length : int;
  mean_replication : float;  (** peers per distinct path *)
  storage : Pgrid_stats.Moments.t;  (** distinct keys per peer *)
}

val stats : t -> stats

(** [integrity_errors t] counts routing-table violations: a level-[l]
    reference whose path provably does not branch into the complement at
    [l] (references shorter than [l+1] bits cannot be judged and are not
    counted), plus levels of online nodes with no references although
    the complement is {!inhabited_below}. *)
val integrity_errors : t -> int
