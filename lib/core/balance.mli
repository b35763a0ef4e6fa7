(** Online partition load balancing (runtime splits and retractions).

    The paper's reference partitioning balances storage only at
    construction time: partitions split while [d > d_max] and
    [n > n_min], and nothing re-balances once live {!Overlay.insert}
    traffic skews the key distribution.  This module closes that gap
    with the runtime counterpart of the construction rules, in the
    spirit of the related dynamic-balancing work (Chawachat &
    Fakcharoenphol; D3-Tree):

    {ul
    {- {b split}: when a partition's storage load exceeds [d_max] and
       its online membership is above [2 * n_min], its members extend
       their path by one bit.  The side each member takes is decided by
       the AEP machinery ({!Pgrid_partition.Aep_math.probabilities} on
       the locally estimated left-load fraction, derived from the
       incremental {!Node.zero_count}/{!Node.key_count} statistics), so
       membership divides in proportion to load; floors guarantee both
       halves keep at least [n_min] members.  Keys migrate to the
       responsible half and each member seeds up to 4 routing
       references to the complementary half, preserving referential
       integrity (extending a path keeps every inbound third-party
       reference valid).}
    {- {b retract}: a partition whose load and membership have fallen
       below the configured floors merges with its sibling — when the
       sibling is a leaf — via an {!Overlay.anti_entropy_pair}-style
       store union: every member of both halves adopts the parent path
       and tops its store up from the union.  Shortening a path keeps
       inbound references valid (the referenced peer now covers a
       superset of its old key range).}}

    Balancing acts on fully online partitions only: a partition with an
    offline member is skipped for that pass (its sleeping peers would
    come back with a stale path), which makes the subsystem safe to run
    alongside churn.

    Each action reports to [?telemetry]: [Balance_split] / [Retract]
    events, one [Migrate] event per peer that dropped keys, and the
    [balance.splits] / [balance.retracts] / [balance.migrated_keys] /
    [balance.max_load] gauges. *)

type config = {
  d_max : int;  (** split a partition once its distinct-key load exceeds this *)
  n_min : int;
      (** both halves of a split keep at least this many members; a
          partition splits only while membership exceeds [2 * n_min] *)
  retract_load : int;
      (** retract when the combined load of the partition and its
          sibling is at most this (must leave headroom below [d_max],
          or split/retract would thrash) *)
  retract_members : int;
      (** retract only a partition whose membership fell to this floor *)
  max_actions : int;  (** cap on splits + retracts per {!pass} *)
}

(** [retract_load = min (d_max - 1) (max 1 (d_max / 4))],
    [retract_members = n_min], [max_actions = 32]: it passes {!validate}
    for every [d_max >= 1] and [n_min >= 1]. *)
val default_config : d_max:int -> n_min:int -> config

(** @raise Invalid_argument when a field is out of range ([d_max < 1],
    [n_min < 1], [retract_load >= d_max], negative floors/caps). *)
val validate : config -> unit

type pass_report = {
  splits : int;
  retracts : int;
  migrated_keys : int;  (** distinct keys peers dropped when re-homed *)
  copied_keys : int;  (** (key, payload) copies created by store unions *)
  max_load : int;  (** highest per-partition load after the pass *)
}

(** [pass rng overlay cfg] runs one balancing scan: partitions are
    visited in path order (deterministic per seed) and the first
    eligible action is applied, repeatedly, until no action remains or
    [cfg.max_actions] is reached.  Splits are preferred over
    retractions.  Returns the tally; also sets the [balance.max_load]
    gauge on [?telemetry].  The pass reads partitions and their loads
    ({!Overlay.load}) from the overlay's partition index and refreshes
    it after each action, which costs the peers that action re-homed,
    not a fresh census; an action then costs one ordered scan for the
    next candidate.

    [restrict] (default: none) narrows the pass to a reachability
    island: peers it rejects are treated as nonexistent, so islands of
    a live network partition balance independently — each may split the
    same path on its own, the structural divergence
    {!Reconcile.repair_structure} repairs after heal.  Omitting it
    leaves the RNG draw sequence bit-identical. *)
val pass :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  ?restrict:(Node.id -> bool) ->
  Pgrid_prng.Rng.t ->
  Overlay.t ->
  config ->
  pass_report
