(** The full-system experiment on the simulated network — this repo's
    substitute for the paper's PlanetLab deployment (Section 5).

    The timeline follows the paper: peers join (0-100 min) and form an
    unstructured overlay, replicate their keys to [n_min] random-walk
    targets (45-100 min), construct the structured overlay with the
    {!Engine} protocol (100-300 min), answer queries (300 min to the end),
    and endure churn (430-500 min; every peer offline 1-5 min every 5-10
    min).  Message latency, loss, per-kind bandwidth and query retries are
    simulated by [Pgrid_simnet]; the outcome carries the time series of
    Figures 7 (population), 8 (bandwidth) and 9 (query latency) plus the
    in-text statistics. *)

type phases = {
  join_end : float;
  replicate_start : float;
  construct_start : float;
  construct_end : float;
  query_start : float;
  churn_start : float;
  end_time : float;
}

(** The hardened query path's {!Pgrid_query.Storm} config: 2 s base
    timeout, factor-2 backoff with 20% jitter, 3 retries, eviction after
    2 consecutive timeouts, no hedging, no circuit breakers. *)
val default_robust : Pgrid_query.Storm.config

(** {1 Fixed constants}

    The deployment is the paper's and no caller varies it: 10 keys per
    peer; [n_min = 5] replicas and [d_max = 50] keys per peer ({!n_min},
    {!d_max}); an unstructured overlay of degree 4 sampled by 8-step
    random walks; {!Pgrid_simnet.Latency.planetlab} latency, 2% loss
    and 60 s bandwidth buckets; 200-byte headers and 64-byte keys; on
    the legacy query path a flat 2 s penalty per dead reference; and an
    {!Engine} in [Theory] mode that retires a peer after 2 fruitless
    interactions and follows at most 20 referrals. *)

val n_min : int
val d_max : int

type params = {
  peers : int;
  initiate_mean : float;  (** mean pause between construction initiations *)
  ping_interval : float;  (** periodic routing-table ping *)
  query_min : float;  (** paper: a query every 1-2 minutes per peer *)
  query_max : float;
  phases : phases;
  churn : Pgrid_simnet.Churn.params option;
      (** [None]: the paper's churn cycle over [churn_start, end_time] *)
  robust : Pgrid_query.Storm.config option;
      (** [None] with an empty [fault_plan]: the legacy synchronous query
          walk, where a dead reference costs a flat 2 s.  Otherwise every
          hop is a [Req]/[Resp] round trip through a {!Pgrid_query.Storm}
          with this config ({!default_robust} when only a fault plan is
          given); its [breaker] field adds per-(origin, target) circuit
          breakers. *)
  fault_plan : Pgrid_simnet.Fault.plan;  (** [[]]: no fault injection *)
  fault_seed : int;  (** seed of the fault layer's dedicated RNG *)
  maint : Pgrid_core.Maintenance.daemon_config option;
      (** [Some]: the self-healing maintenance daemon
          ({!Pgrid_core.Maintenance.install_daemon}) runs from
          [query_start] to [end_time]. *)
  txn : bool;
      (** [true]: from [query_start] on, a random online coordinator
          atomically indexes one document under 3-6 distinct keys every
          10 s (exponential mean) through {!Pgrid_core.Txn}, and a
          {!Pgrid_core.Txn.recover_pass} runs every 60 s and once after
          the run.  Its messages ride the network as maintenance traffic;
          fault-plan crashes reach {!Pgrid_core.Txn.note_crash}, and the
          daemon's health monitor audits settled documents for torn
          writes. *)
  service : Pgrid_simnet.Net.overload_config option;
      (** [Some]: bounded per-peer service queues with load shedding. *)
}

(** Paper-like defaults for ~296 peers, on the paper's timeline
    (minutes 0/45/100/300/430/500, in seconds). *)
val default_params : peers:int -> params

type query_stats = {
  issued : int;
  succeeded : int;
  failed : int;
  mean_hops : float;
  mean_latency : float;  (** seconds, successful queries *)
}

type outcome = {
  overlay : Pgrid_core.Overlay.t;
  reference : Pgrid_partition.Reference.t;
  deviation : float;
  online_series : (float * int) list;  (** (minute, online peers) — Fig 7 *)
  maintenance_bw : (float * float) list;
      (** (minute, bytes/sec per online peer) — Fig 8 *)
  query_bw : (float * float) list;
  latency_series : (float * float * float) list;
      (** (minute bucket, mean, stddev) of query latency — Fig 9 *)
  query_stats : query_stats;
  stats : Pgrid_core.Overlay.stats;
  counters : Engine.counters;
  messages_sent : int;
  messages_dropped : int;
  messages_shed : int;
      (** shed by bounded service queues; 0 unless [params.service] *)
  queue_peak : int;  (** deepest service queue observed; 0 without [service] *)
  robust_stats : Pgrid_query.Storm.stats option;
      (** the hardened path's counters; [None] on legacy runs *)
  fault_stats : Pgrid_simnet.Fault.stats option;
      (** [Some] iff a fault plan was installed *)
  maint_stats : Pgrid_core.Maintenance.daemon_stats option;
      (** [Some] iff the maintenance daemon ran *)
  txn : Pgrid_core.Txn.t option;
      (** the transaction manager, for post-run audits
          ({!Pgrid_core.Txn.settled_docs}, {!Pgrid_core.Health.check}) *)
  txn_stats : Pgrid_core.Txn.stats option;
      (** [Some] iff the transaction workload ran *)
}

(** [run ?telemetry rng params ~spec] executes the full timeline.
    Deterministic for a given seed; an option left off ([robust],
    [fault_plan], [maint], [txn], [service]) draws nothing, so it leaves
    the rest of the run as it was without that layer. [telemetry] (default
    {!Pgrid_telemetry.Global.get}) observes the whole run with
    simulated-time stamps: engine operations (via {!Engine}), per-kind
    message traffic (via {!Pgrid_simnet.Net}), churn transitions and the
    query lifecycle (issue / hop / complete, correlated by query id). *)
val run :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  Pgrid_prng.Rng.t ->
  params ->
  spec:Pgrid_workload.Distribution.spec ->
  outcome
