(** Overlay health monitor: typed invariant checker + scalar score.

    [check] audits a whole {!Overlay.t} against the paper's structural
    invariants — referential integrity (Section 3), replication at or
    above [n_min] (Section 4), trie completeness — and against data
    durability: a key is *at risk* when every peer holding it is
    offline, and *lost* when no peer holds it at all.  The result is a
    deterministic list of violations (sorted by partition path / peer
    id / key) plus a scalar [score] in [0, 1] combining the four
    invariant classes, suitable for time-series plotting.

    The checker is read-only and scheduler-agnostic; the maintenance
    daemon ({!Maintenance.install_daemon}) runs it periodically and
    reacts to [Under_replicated] partitions. *)

module Key = Pgrid_keyspace.Key

type violation =
  | Ref_integrity of { peer : Node.id; level : int }
      (** [peer]'s level-[level] complement is inhabited by an online
          node, yet the peer has no online reference at that level *)
  | Trie_incomplete of { prefix : string }
      (** a populated partition whose every member is offline: the
          region is temporarily dark (queries into it dead-end) *)
  | Under_replicated of { path : string; online : int; required : int }
      (** a partition with at least one online member but fewer than
          [required = n_min] *)
  | Data_at_risk of { key : Key.t; holders : int }
      (** every one of the key's [holders] copies is on an offline peer *)
  | Data_lost of { key : Key.t }
      (** a tracked key that no peer — online or offline — stores *)
  | Torn_write of { doc : string; present : int; total : int }
      (** a tracked document indexed under a strict subset of its keys:
          an atomic multi-key write that tore (the invariant the
          transaction layer's commit/abort/recovery must preserve) *)
  | Resurrected_key of { key : Key.t; holders : int }
      (** [versions] only: the key is live at [holders] online peer(s)
          although the globally newest write for it is a tombstone — a
          routed delete has been undone by a stale copy *)
  | Diverged_partition of { prefix : string; descendants : int }
      (** [versions] only: an online-inhabited path that is a strict
          prefix of [descendants] other online-inhabited path(s) — two
          islands split the same path independently while partitioned *)

type report = {
  violations : violation list;  (** deterministic order *)
  ref_integrity : int;
  trie_incomplete : int;
  under_replicated : int;
  at_risk : int;
  lost : int;
  torn : int;  (** torn documents among [docs] *)
  resurrected : int;  (** [versions] only; else 0 *)
  diverged : int;  (** [versions] only; else 0 *)
  tombstone_debt : int;
      (** live tombstones across online peers ([versions] only; else 0) *)
  online : int;  (** online peers at check time *)
  partitions : int;  (** populated partitions (online or not) *)
  tracked_keys : int;  (** distinct keys audited for durability *)
  score : float;  (** weighted health in [0, 1]; 1 = pristine *)
}

(** [check ?keys ?docs ~n_min overlay] audits the overlay.  [keys] is
    the set of keys that *should* exist (e.g. everything ever inserted);
    keys present in some store are audited either way, but loss of a key
    wiped from every store is only detectable when it is listed in
    [keys].  [docs] lists settled multi-key documents as
    [(payload, keys)]: each must be indexed under all of its keys or
    none (partial presence is a {!Torn_write}); holders are counted
    online or offline, judging durable state like [Data_lost] does.

    [versions] (default [false]) additionally audits the write-version
    sidecar: {!Resurrected_key}, {!Diverged_partition} and the
    [tombstone_debt] gauge.  Off, the report is bit-identical to the
    pre-reconciliation checker. *)
val check :
  ?keys:Key.t array ->
  ?docs:(string * Key.t array) array ->
  ?versions:bool ->
  n_min:int ->
  Overlay.t ->
  report

(** [score ?keys ?docs ~n_min overlay] is [(check ... ).score]. *)
val score :
  ?keys:Key.t array ->
  ?docs:(string * Key.t array) array ->
  n_min:int ->
  Overlay.t ->
  float

(** [emit ?telemetry report] records the report as a
    {!Pgrid_telemetry.Event.Health_report} event (updating the
    [health.*] and [data.*] gauges); no-op without a handle. *)
val emit : ?telemetry:Pgrid_telemetry.Telemetry.t -> report -> unit
