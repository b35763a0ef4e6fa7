(** The caching query engine: routed lookups that consult and feed
    per-peer {!Qcache}s, plus batched lookups that share a walk.

    With [?cache] omitted the walk is exactly {!Pgrid_core.Overlay.search}
    — same steps, same RNG draws, same outcome — so experiments that
    disable the cache reproduce the paper's numbers byte for byte. *)

(** How a lookup was answered: by routing to the responsible peer, from
    a result cache at some node along the walk, or via a route-cache
    jump straight to a validated responsible peer. *)
type served = Network | Result_cache | Route_cache

type outcome = {
  responsible : int option;  (** [None]: routing failed *)
  hops : int;
      (** messages paid, counting cache-jump contacts and wasted
          stale contacts *)
  key_present : bool;
  payloads : string list;
  served : served;
  stale : int;  (** stale cache entries hit (and evicted) along the walk *)
  dead_end : (int * int) option;  (** as {!Pgrid_core.Overlay.search} *)
}

(** [lookup ?telemetry ?cache overlay ~from key] is the walk of
    {!Pgrid_core.Overlay.search}, probing [cache] at every peer it
    forwards from; each of them learns the answer.  A stale entry costs
    one extra hop; validation on use keeps the answer genuine.  Emits
    [Cache_hit] / [Cache_miss] / [Cache_stale] when [telemetry] is
    active. *)
val lookup :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  ?cache:Qcache.t ->
  Pgrid_core.Overlay.t ->
  from:int ->
  Pgrid_keyspace.Key.t ->
  outcome

type batch_item = {
  bkey : Pgrid_keyspace.Key.t;
  bresponsible : int option;
  bpresent : bool;
  bdepth : int;  (** depth in the shared walk at which it resolved *)
  bserved : served;
}

type batch = {
  items : batch_item array;  (** in input order *)
  messages : int;  (** forwards the shared walk actually sent *)
  naive_messages : int;
      (** cost of the same resolutions had each key walked alone (sum of
          resolution depths) *)
  unresolved : int;
}

(** [lookup_many ?cache overlay ~from keys] resolves [keys] from one
    origin in a single shared walk: keys answered at the current node
    (responsibility or a result-cache hit) peel off, the rest bucket by
    divergence level and one forwarded message carries each bucket —
    the fan-out happens exactly where the key paths diverge.  The walk
    probes the result caches alone ({!Qcache.probe_results}): a route
    jump would fragment it, so route entries are left untouched. *)
val lookup_many :
  ?cache:Qcache.t ->
  Pgrid_core.Overlay.t ->
  from:int ->
  Pgrid_keyspace.Key.t list ->
  batch
