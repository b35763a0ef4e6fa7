(** Partition tolerance: version-aware replica reconciliation.

    The legacy sync primitives ({!Overlay.anti_entropy},
    {!Overlay.anti_entropy_pair}) compute a pure union of stores, which
    is correct only while nothing is ever deleted: a replica that missed
    a routed delete — because it sat on the far side of a partition, or
    was offline — resurrects the key at the next exchange.  This module
    replaces union with a per-key vote over the version sidecar every
    routed write maintains ({!Node.meta}):

    - {b newest write wins} — the higher overlay write version decides;
    - {b tombstone beats stale put} — at equal versions a delete
      outranks an insert (equal versions only arise for pre-versioning
      state, where both sides are version 0);
    - {b tombstones are durable but bounded} — a delete leaves a dead
      sidecar entry that keeps outvoting stale copies until {!gc} ages
      it out after [gc_after] seconds.

    Islands that independently {e split the same path} while separated
    leave structural divergence after heal: an inhabited path with
    inhabited strict descendants, where the straggler and the deeper
    specialists each claim keys the other holds.  {!repair_structure}
    detects these prefix conflicts and completes the split
    deterministically (no randomness, so repeated runs converge and no
    experiment RNG stream is perturbed). *)

type sync_result = {
  copied : int;  (** live (key, payload) copies moved, both directions *)
  tombstoned : int;  (** stale live entries erased by a newer tombstone *)
}

(** [sync_pair t ~a ~b ~budget] is the version-aware replacement for
    {!Overlay.anti_entropy_pair}: same guards (distinct, online,
    path-equal peers; [budget] bounds live copies) and the same
    replica-learning side effect, but every key — including pure
    tombstones — is settled by the vote above instead of unioned. *)
val sync_pair : Overlay.t -> a:Node.id -> b:Node.id -> budget:int -> sync_result

(** [gc ~gc_after t ~now] drops tombstones stamped [gc_after] or more
    seconds (simulated time) before [now] from every online node,
    returning the number purged.  A purged tombstone can no longer veto
    a copy staler than itself, so [gc_after] bounds the partition
    duration deletes survive. *)
val gc : gc_after:float -> Overlay.t -> now:float -> int

(** [tombstone_debt t] is the total number of live tombstones across
    online nodes — the gauge the health report surfaces. *)
val tombstone_debt : Overlay.t -> int

(** [conflicts t] lists the structurally diverged paths: inhabited
    (online) paths that are a strict prefix of another inhabited path,
    sorted. *)
val conflicts : Overlay.t -> Pgrid_keyspace.Path.t list

(** [repair_structure ?telemetry t] repairs every current conflict:
    peers still at a conflicted path are demoted into one child (the
    uninhabited one if any, else the one with fewer peers, ties to the
    0-side), after copying each key {e and} tombstone the demotion would
    orphan to the online peers responsible for it on the other side;
    cross-references and replica links are then seeded at the new level
    (a demoted peer references up to 4 peers of the other side).
    Deterministic.  Emits one
    [Reconcile_repair] event per repaired path and returns the number of
    conflicts repaired (deeper conflicts uncovered by a repair are
    caught by the next pass). *)
val repair_structure : ?telemetry:Pgrid_telemetry.Telemetry.t -> Overlay.t -> int
