(** Per-peer query caches for read-heavy traffic.

    Each peer that participates in (or forwards) lookups accumulates two
    bounded LRU caches of int-keyed entries (the route cache keyed by
    {!Pgrid_keyspace.Path.code}, the result cache by
    {!Pgrid_keyspace.Key.to_int}).  Every peer's entries share one slot
    arena, which grows in fixed-size chunks, and one hash table keyed by
    (peer, cache, key), so that finding, bumping and refreshing an entry
    allocate nothing and no peer owns an array:

    {ul
    {- a {e route cache}: the full path of a known responsible peer,
       keyed by that path so any key sharing the prefix jumps straight
       to it (probed longest-prefix-first);}
    {- a {e result cache}: the complete answer of a recent lookup
       (responsible peer, key presence, payloads) for hot keys.}}

    Correctness never depends on invalidation.  Every served entry is
    {e validated on use}: the cached peer must be online and its path
    must still match the key — the same criterion a routed search
    terminates on — so a stale entry can cost an extra hop (reported as
    {!Stale}; the lookup falls back to routing) but can never yield a
    wrong responsible peer.

    Invalidation exists for hit-ratio hygiene and is O(1) per event,
    stamped rather than scanning: every invalidation ticks one clock and
    records the tick on the peer it names, on the key it names or, for
    a flush, on the whole cache; an entry carries the tick it was
    learned at and silently dies once its target, its key (result
    entries only) or the whole cache was invalidated after it.  The cache subscribes to
    {!Pgrid_core.Overlay.subscribe} at creation, so load-balance splits
    and retracts, migrations, structural repairs, reference evictions
    and routed writes invalidate automatically; {!observe} additionally
    maps replayed telemetry events ([Migrate], [Balance_split],
    [Retract], [Partition_heal], [Ref_evict]) onto the same machinery. *)

type t

(** [create ?telemetry ?route_cap ?result_cap overlay] makes an empty
    cache bundle (the arena grows as entries arrive) and subscribes it
    to [overlay]'s change feed.  [route_cap] / [result_cap] (default 512
    each) bound each peer's two caches individually.  [telemetry]
    receives [Cache_invalidate] events; hits, misses and stale probes
    are the {e engine}'s to report.  Raises [Invalid_argument] on
    non-positive capacities. *)
val create :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  ?route_cap:int ->
  ?result_cap:int ->
  Pgrid_core.Overlay.t ->
  t

(** Outcome of probing one peer's caches for one key, result cache
    first.  [Stale] names the peer a failed-validation entry pointed at;
    the entry has been evicted and the caller must continue routing. *)
type probe =
  | Hit_result of { target : int; present : bool; payloads : string list }
  | Hit_route of int
  | Stale of int
  | Miss

(** [probe t ~at key] consults peer [at]'s caches.  Exactly one counter
    (hit / miss / stale) is charged per call. *)
val probe : t -> at:int -> Pgrid_keyspace.Key.t -> probe

(** [probe_results t ~at key] consults peer [at]'s result cache alone,
    leaving its route cache and that cache's recency untouched: never
    [Hit_route].  For callers that cannot take a route jump, such as a
    shared batch walk.  Charges one counter, as {!probe} does. *)
val probe_results : t -> at:int -> Pgrid_keyspace.Key.t -> probe

(** [learn t ~at ~key ~target ~present ~payloads] records a completed
    lookup at peer [at]: a route entry for [target]'s current path and a
    result entry for [key].  A no-op when [at = target] (a responsible
    peer never needs a shortcut to itself).  Raises [Invalid_argument]
    when [at] or [target] is outside [0, 2^30), before anything is
    allocated: peer ids are packed into 30 bits. *)
val learn :
  t ->
  at:int ->
  key:Pgrid_keyspace.Key.t ->
  target:int ->
  present:bool ->
  payloads:string list ->
  unit

(** [invalidate t change] applies one overlay change (already wired via
    [Overlay.subscribe]; exposed for tests and manual feeds). *)
val invalidate : t -> Pgrid_core.Overlay.change -> unit

(** [observe t kind] maps a telemetry event onto invalidation:
    [Migrate] / [Ref_evict] retire entries pointing at the named peer,
    [Balance_split] / [Retract] / [Partition_heal] flush.  Other events
    are ignored. *)
val observe : t -> Pgrid_telemetry.Event.kind -> unit

(** [flush t] retires every entry learned before it (one clock tick;
    O(1)). *)
val flush : ?reason:string -> t -> unit

(** [clear t] drops every entry, unlike the stamped {!flush},
    which only retires them.  The arena keeps its slots for the entries
    that follow, so a cleared cache refills without allocating. *)
val clear : t -> unit

(** Cumulative counters ([*_hits] / [misses] / [stale] are per-{!probe})
    plus current live entry totals across all peers. *)
type stats = {
  route_hits : int;
  result_hits : int;
  misses : int;
  stale : int;
  invalidations : int;
  evictions : int;
  route_entries : int;
  result_entries : int;
}

val stats : t -> stats

(** [hit_ratio s] is hits over probes, 0 before any probe. *)
val hit_ratio : stats -> float
