(** Standard overlay maintenance: the sequential join/leave/repair model
    the paper contrasts its parallel construction against (Sections 1 and
    6), plus online replication balancing (the paper's second
    load-balancing dimension, elaborated in its companion work
    "Multifaceted Simultaneous Load Balancing", reference [2]).

    These operations run on a *constructed* overlay: churn repair keeps
    routing tables alive, graceful leaves keep data alive, joins restore
    replication, and rebalancing migrates peers from over- to
    under-replicated partitions.

    Every operation reports to its [?telemetry] handle (default
    {!Pgrid_telemetry.Global.get}): [Peer_leave]/[Peer_join] with churn
    transitions, and [Repair]/[Rebalance] outcome events.

    Every grouping of peers by path is read from the overlay's partition
    index.  A routing level's complement is inhabited when
    {!Overlay.inhabited_below} holds (an online peer at or below it,
    the paper's referential integrity), and its refill candidates are
    {!Overlay.online_below}.  The daemon reacts to {!Health.check},
    whose [Ref_integrity] reads {!Overlay.inhabited_around} (also a peer
    above the complement); the two differ only on a trie that is not
    prefix-free. *)

(** [leave rng overlay id] performs a graceful departure: the node pushes
    any payload-bearing keys its online replicas are missing, announces
    the departure, and goes offline.  A peer departing as the *last*
    member of its partition first recruits a stand-in from the
    most-replicated partition (emergency replication balancing), so no
    partition — and no data — dies with it.  Returns the number of
    (key, payload) copies pushed. No-op (returning 0) when the node is
    already offline. *)
val leave :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  Pgrid_prng.Rng.t ->
  Overlay.t ->
  Node.id ->
  int

(** [join rng overlay id ~entry] integrates the offline node [id] back:
    starting from online peer [entry], it routes to a partition chosen by
    a random key, becomes a replica of the host (copying its path, keys
    and routing references), and registers with the host's replica group.
    Returns the routing hop count, or [None] when no host is
    reachable. @raise Invalid_argument if [id] is online. *)
val join :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  Pgrid_prng.Rng.t ->
  Overlay.t ->
  Node.id ->
  entry:Node.id ->
  int option

type repair_report = {
  dead_refs_dropped : int;
  refs_added : int;
  unfixable_levels : int;
      (** levels whose complement has no online peer at all *)
}

(** [repair rng overlay ~redundancy] walks every online node's routing
    table: references that are offline or no longer branch into the
    level's complement are dropped, and each level is refilled up to
    [redundancy] references with online peers of the complement (the
    global index stands in for the lookup-based discovery a deployment
    would use — "correction on use"). *)
val repair :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  Pgrid_prng.Rng.t ->
  Overlay.t ->
  redundancy:int ->
  repair_report

(** [correct_on_use ?dead rng overlay ~peer ~level] is the paper's
    correction-on-use repair, triggered by an actual routing failure
    rather than a global sweep: evict [dead] from [peer]'s level-[level]
    references (or, without [dead], every currently-offline reference at
    that level), emit a [Ref_evict] event per eviction, and refill the
    level with a random online complement peer if it was left empty.
    Returns the number of references evicted; out-of-range levels are a
    no-op. *)
val correct_on_use :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  ?dead:Node.id ->
  Pgrid_prng.Rng.t ->
  Overlay.t ->
  peer:Node.id ->
  level:int ->
  int

type rebalance_report = {
  migrations : int;
  rounds : int;
  final_spread : float;
      (** max/min online peers per partition after balancing *)
}

(** [rebalance rng overlay ~n_min ~max_rounds] performs replication
    balancing: while some partition holds more than twice the peers of
    the most starved one (and stays above [n_min] itself), one peer
    migrates from the richest to the poorest partition — adopting its
    path, cloning a member's store and wiring fresh references (the
    "balls move themselves" dynamic of the paper's balls-into-bins
    discussion). *)
val rebalance :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  Pgrid_prng.Rng.t ->
  Overlay.t ->
  n_min:int ->
  max_rounds:int ->
  rebalance_report

(** Configuration of the self-healing maintenance daemon.  Its fixed
    constants: each gap between one peer's upkeep ticks is
    [period * (1 + 0.5 * U(-1, 1))], desynchronizing peers; one
    anti-entropy exchange copies at most 64 (key, payload) pairs; the
    balance and reconcile processes each run every 60 s. *)
type daemon_config = {
  period : float;  (** mean seconds between one peer's upkeep ticks *)
  redundancy : int;  (** refs per routing level the refresh tops up to *)
  n_min : int;  (** replication target the health monitor audits against *)
  critical : int;
      (** emergency re-replication triggers when a partition's *alive*
          membership — online peers plus offline ones whose store is
          intact — falls to this floor.  Counting alive rather than
          online members separates real data danger (crashes wipe
          stores) from churn noise (sleeping peers keep theirs);
          reacting to online dips alone would thrash *)
  monitor_period : float;  (** seconds between health-monitor passes *)
  balance : Balance.config option;
      (** online load balancing (runtime splits/retractions, see
          {!Balance}); [None] disables it {e and} leaves the daemon's
          RNG draw sequence bit-identical to a build without the
          subsystem *)
  txn : Txn.t option;
      (** transaction manager to watch over: the health monitor audits
          its settled documents for {!Health.Torn_write} violations and
          a dedicated process runs {!Txn.recover_pass} every
          [monitor_period] seconds; [None] (the default) disables both
          and, like [balance], leaves the daemon's RNG draw sequence
          bit-identical *)
  admit : (Node.id -> Node.id -> bool) option;
      (** reachability filter (e.g. {!Pgrid_simnet.Fault.connected}
          partially applied): when set, anti-entropy partners, routing
          refresh candidates and balance passes only see peers the
          filter admits, so an open network partition maintains itself
          as two independent islands rather than through walls the data plane
          cannot cross.  [None] (the default) admits everyone and
          leaves the daemon's RNG draw sequence bit-identical *)
  reconcile : float option;
      (** [Some gc_after]: post-partition reconciliation (see {!Reconcile}): replaces the
          per-peer {!Overlay.anti_entropy_pair} exchange with the
          version-aware {!Reconcile.sync_pair}, makes the health monitor
          audit the write-version sidecar
          ([Health.check ~versions:true] — {!Health.Resurrected_key} is
          answered by pushing the newest tombstone back over stale live
          copies, and emergency rescue paths refuse to resurrect
          deleted keys), and adds a dedicated process running
          {!Reconcile.repair_structure} (only while the network is
          whole under [admit]) plus {!Reconcile.gc} with tombstone
          lifetime [gc_after] seconds.  [None] (the default) disables
          all of it and leaves the daemon's RNG draw sequence
          bit-identical *)
}

(** [period = 30.], [redundancy = 2],
    [critical = 1], [monitor_period = 60.], [balance = None],
    [txn = None], [admit = None], [reconcile = None]. *)
val default_daemon_config : n_min:int -> daemon_config

(** Live counters of daemon activity; updated in place as the scheduled
    processes run. *)
type daemon_stats = {
  mutable ticks : int;  (** per-peer upkeep ticks that ran while online *)
  mutable exchanges : int;  (** anti-entropy exchanges that copied > 0 *)
  mutable keys_synced : int;
  mutable levels_refreshed : int;
  mutable refs_evicted : int;
  mutable refs_added : int;
  mutable monitor_runs : int;
  mutable rereplications : int;
  mutable balance_passes : int;
  mutable balance_splits : int;
  mutable balance_retracts : int;
  mutable balance_keys_moved : int;
      (** distinct keys dropped plus (key, payload) copies created by
          balancing actions *)
  mutable recover_passes : int;  (** {!Txn.recover_pass} runs *)
  mutable intents_resolved : int;
      (** intent-log records those passes resolved *)
  mutable reconcile_passes : int;  (** reconciliation process runs *)
  mutable divergences_repaired : int;
      (** conflicts {!Reconcile.repair_structure} resolved *)
  mutable tombstones_purged : int;  (** metas {!Reconcile.gc} dropped *)
}

(** [install_daemon sim rng overlay ~until cfg] installs the paper's
    proactive maintenance processes as periodic processes
    ({!Pgrid_simnet.Sim.every}) on the simulator [sim]:

    {ul
    {- per peer, every [period] seconds (jittered, first tick uniform in
       [0, period)): one budgeted {!Overlay.anti_entropy_pair} exchange
       with a random online replica (emitting [Anti_entropy]), then a
       proactive refresh of one random routing level.  The refresh is
       additive: {!correct_on_use} fires only when the level has no
       online reference at all (offline references are kept — churned
       peers come back), the level is topped up to [redundancy] online
       references, and offline ones are trimmed only beyond a
       [2 * (redundancy + n_min)] cap. Offline peers skip the work but
       keep their timer.}
    {- every [monitor_period] seconds: one {!Health.check} pass, emitted
       via {!Health.emit} ([Health_report] event + [health.*] gauges).
       A partition whose alive membership is at or below [critical] —
       and any fully dark partition ([Trie_incomplete]) — triggers
       emergency re-replication: a recruit from the richest sparable
       partition hands its payloads to its surviving former replicas,
       then adopts the endangered partition (emitting [Re_replicate]).
       [Data_at_risk] keys are copied from a sleeping holder back to
       the online members of the responsible partition.}
    {- with [cfg.balance = Some b]: every 60 seconds one
       {!Balance.pass} — runtime splits of overloaded partitions and
       retractions of starved ones (see {!Balance}).}}

    No process runs once [sim]'s clock reaches [until]. [keys]
    supplies the tracked key set for the monitor (see {!Health.check}).
    The config is validated before anything is scheduled. Returns the
    mutable stats record the processes update. *)
val install_daemon :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  ?keys:(unit -> Pgrid_keyspace.Key.t array) ->
  Pgrid_simnet.Sim.t ->
  Pgrid_prng.Rng.t ->
  Overlay.t ->
  until:float ->
  daemon_config ->
  daemon_stats
