(** Generators for every table and figure of the paper's evaluation, the
    ablations and the simulation experiments.

    Each function recomputes one artifact from scratch (deterministically
    for a given seed) and returns printable data or named metrics;
    {!Experiment} registers and renders them.  Paper-expected shapes are
    documented per function and summarized in EXPERIMENTS.md. *)

(** Figure 3: the second derivative [alpha''(p)] over (0, 0.3]; blows up
    for small [p] (the regime where sampling errors hurt most). *)
val fig3 : unit -> Pgrid_stats.Series.figure

(** Figures 4 and 5: one bisection at [n] peers, 10-key estimates,
    [reps] repetitions per point over the paper's p grid
    (0.05 ... 0.5).  [fig4] reports the mean deviation [p0 - n*p]
    (SAM/AEP biased up, COR and AUT near zero); [fig5] the mean total
    number of interactions (AEP family below AUT, all rising as p falls;
    MVA as the deterministic baseline). *)
val fig4 : ?n:int -> ?reps:int -> seed:int -> unit -> Pgrid_stats.Series.figure

val fig5 : ?n:int -> ?reps:int -> seed:int -> unit -> Pgrid_stats.Series.figure

(** A Figure-6-style aggregate: label of the x-category, then one value
    per distribution (U, P0.5, P1.0, P1.5, N, A). *)
type fig6 = {
  title : string;
  categories : string list;  (** row labels, e.g. "n=256" *)
  distributions : string list;  (** column labels *)
  values : float array array;  (** values.(row).(column) *)
}

val fig6_table : fig6 -> string

(** Figure 6(a): deviation for n = 256/512/1024 (stable across sizes,
    increasing with skew). *)
val fig6a : ?reps:int -> seed:int -> unit -> fig6

(** Figure 6(b): deviation for n_min = 5..25 at n = 256 (degrades for
    strongly skewed distributions at large n_min). *)
val fig6b : ?reps:int -> seed:int -> unit -> fig6

(** Figure 6(c): deviation for d_max = 10/20/30 * n_min (no systematic
    influence — small samples suffice). *)
val fig6c : ?reps:int -> seed:int -> unit -> fig6

(** Figure 6(d): theoretical vs heuristic decision probabilities for
    n_min = 5, 10 (heuristics degrade load balance substantially). *)
val fig6d : ?reps:int -> seed:int -> unit -> fig6

(** Figure 6(e): construction interactions per peer (grows gracefully
    with network size). *)
val fig6e : ?reps:int -> seed:int -> unit -> fig6

(** Figure 6(f): data keys moved per peer during construction (grows
    gracefully; skew increases bandwidth). *)
val fig6f : ?reps:int -> seed:int -> unit -> fig6

(** The PlanetLab-substitute run shared by Figures 7-9 and Table 1
    (memoized per (peers, seed)). *)
val planetlab_run :
  ?peers:int -> seed:int -> unit -> Pgrid_construction.Net_engine.outcome

(** Figure 7: online peers over the 500-minute timeline (ramp, plateau,
    churn dip). *)
val fig7 : ?peers:int -> seed:int -> unit -> Pgrid_stats.Series.figure

(** Figure 8: aggregate bandwidth per peer, maintenance vs queries
    (construction peak, then decay). *)
val fig8 : ?peers:int -> seed:int -> unit -> Pgrid_stats.Series.figure

(** Figure 9: query latency mean and standard deviation over time (flat,
    then elevated and noisy under churn). *)
val fig9 : ?peers:int -> seed:int -> unit -> Pgrid_stats.Series.figure

(** Table 1 (in-text statistics of Section 5.2): paper value vs measured
    value rows. *)
val table1 : ?peers:int -> seed:int -> unit -> string list * string list list

(** {1 Simulation experiments}

    Each simulation experiment returns its measurements as named metrics,
    in the order the committed [*_0001.json] baselines record them.  A
    name is [arm/metric] for an arm's aggregate, [arm/metric@t] for its
    sample at simulated second [t], and [group/metric] for a value that
    compares arms or states a bound.  Both arms of a two-arm experiment
    share every environmental seed; only the mechanism under test
    differs.  The defaults are the full size the committed baselines
    record. *)

(** Which way a metric improves: [Up] for rates we want high (success,
    score, goodput), [Down] for costs (deviation, losses, latency). *)
type direction = Up | Down

type metric = string * float * direction

(** [resilience ~seed ()] reruns the full networked timeline at 128
    peers with the hardened query path once per fault severity
    ([0; 0.5; 1]) over a fixed bursty-loss + partition + crash-restart
    plan (see {!Pgrid_simnet.Fault}) scaled by the severity; severity 0
    runs that path with no faults.  Metrics [sS/deviation],
    [sS/success_pct], [sS/mean_latency] and its counters for each
    severity [S]. *)
val resilience : seed:int -> unit -> metric list

(** Ablation X1 (Section 4.3): sequential joins vs parallel construction —
    messages comparable, serialized latency vs flat round count. *)
val ablation_sequential : ?sizes:int list -> seed:int -> unit -> string list * string list list

(** Ablation X2 (Section 3 cost claims): measured eager and AUT cost per
    peer at p = 1/2 against ln 2 and 2 ln 2. *)
val ablation_cost : ?sizes:int list -> ?reps:int -> seed:int -> unit -> string list * string list list

(** Ablation X3: the three sampling-bias corrections (none / Taylor
    Eqs. 9-10 / response calibration) on the single-bisection deviation,
    with 10-key estimates. *)
val ablation_correction :
  ?n:int -> ?reps:int -> seed:int -> unit -> string list * string list list

(** Ablation X4 (paper Section 6 / reference [22]): range queries on the
    order-preserving overlay vs. a Prefix Hash Tree layered over a
    uniform-hashing DHT, message costs side by side; 256 peers, 2560
    keys. *)
val ablation_pht : seed:int -> unit -> string list * string list list

(** Ablation X5 (paper Section 1): fusing two independently constructed
    overlays with the same interaction protocol, against a from-scratch
    build over the union; two communities of 64 peers. *)
val ablation_merge : seed:int -> unit -> string list * string list list

(** Ablation X6 (paper Sections 1/6 maintenance model): graceful leaves,
    routing repair, re-joins and replication re-balancing on a
    constructed 200-peer overlay, with query success measured at each
    step. *)
val ablation_maintenance : seed:int -> unit -> string list * string list list

(** [survival ~seed ()]: the self-healing experiment behind
    [SURVIVAL_0001.json].  A 192-peer overlay takes hours of paper churn
    (60-300 s offline every 300-600 s) plus a permanent-kill wave (30% of
    peers die with their stores wiped over the middle of the run) while
    fresh keys keep being inserted, with the maintenance daemon
    ({!Pgrid_core.Maintenance.install_daemon}) on or off.  Health
    ({!Pgrid_core.Health.check}) and a 200-query batch are sampled every
    [sample_every].  Arms [on]/[off]: lost keys, query success, health
    score and daemon counters, and [dominance/ge_frac] /
    [dominance/gt_frac], the share of samples where the daemon arm's
    score is at least / above the control's.  The daemon ticks every
    30 s.  Defaults: a 7200 s horizon sampled every 240 s. *)
val survival : ?horizon:float -> ?sample_every:float -> seed:int -> unit -> metric list

(** The documented slack factor of the balance experiment: the balanced
    arm's max partition load is expected to stay within
    [balance_slack * d_max] (splits fire on a period while inserts stream
    continuously, and membership floors bound trie depth). *)
val balance_slack : float

(** [balance ~seed ()]: a 192-peer U-built overlay (one key per peer, so
    partitions are few and fat) takes a Pareto-1.5 insert storm — the
    paper's most skewed synthetic distribution — with the daemon's online
    balancing ({!Pgrid_core.Balance}) on in arm [on] and no daemon in arm
    [off].  Per arm: final and peak max partition load, splits,
    retractions, query success and health; [bound/max_load] is
    [balance_slack * d_max], with [d_max = 50].  Defaults: a 3600 s
    horizon sampled every 180 s. *)
val balance : ?horizon:float -> ?sample_every:float -> seed:int -> unit -> metric list

(** [txn ~seed ()]: atomic document indexing under crash-during-commit
    faults.  A constructed 192-peer overlay takes a stream of multi-key document
    inserts through {!Pgrid_core.Txn} while a Poisson crash-restart
    process, its rate scaled by the severity, knocks peers over
    mid-protocol; protocol messages ride a lossy simulated network and a
    periodic {!Pgrid_core.Txn.recover_pass} replays intent logs.  The
    audit judges the durable stores: per severity [S] ([0; 0.3; 0.6]),
    [sS/torn], [sS/lost_committed], [sS/abort_residue]
    and [sS/intents_left] must be 0, beside volumes, commit rate and
    protocol counters.  A document every 6 s.  Default: a 3600 s
    horizon. *)
val txn : ?horizon:float -> seed:int -> unit -> metric list

(** [overload ~seed ()]: a two-arm Zipf-1.1 lookup storm through the
    simulated network ({!Pgrid_query.Storm}) with every peer behind a
    bounded service rate.  Offered load ramps from 30 to 300 queries/s
    over the middle third of the run and back,
    severalfold past the hot partitions' replica capacity.  Arm [on]
    bounds queues (sheds), breaks circuits and hedges; arm [off] has
    unbounded queues, no breakers and no hedging, and shows metastable
    collapse.  Per arm: pre/post-ramp goodput, recovery, completion
    percentiles, shed ratio, storm counters and 24 windows of goodput /
    sheds / backlog; [protection/*] compares the arms.  Defaults: 10k
    peers, a 1440 s run. *)
val overload : ?peers:int -> ?horizon:float -> seed:int -> unit -> metric list

(** One arm of {!overload}: the queries issued in each of its 24 windows,
    and its [on/*] or [off/*] metrics.  Offered load ramps from
    [base_rate] (default 30) to [peak_rate] (default 300) queries/s.  Arrivals come from streams seeded
    apart from the protection, so both arms' windows must match. *)
val overload_arm :
  ?peers:int ->
  ?horizon:float ->
  ?base_rate:float ->
  ?peak_rate:float ->
  protected:bool ->
  seed:int ->
  unit ->
  int list * metric list

(** [partition ~seed ()]: split-brain survival.  The network is cut in
    half over [[0.25, 0.75] * horizon] ({!Pgrid_simnet.Fault.Partition})
    while a skewed insert storm, a routed delete stream and online load
    balancing keep running on both islands.  Arm [on] runs
    {!Pgrid_core.Reconcile}; arm [off] keeps the union-only anti-entropy.
    Per arm: whether and how fast the overlay converged after heal (zero
    resurrected deletes, diverged partitions and lost keys to the end),
    end-state and peak violations, sync / repair / GC counters and the
    sampled series; [bound/converge_seconds] is [0.125 * horizon].
    Defaults: 1024 peers, a 14400 s horizon sampled every 240 s. *)
val partition :
  ?peers:int -> ?horizon:float -> ?sample_every:float -> seed:int -> unit -> metric list

(** [queries ~seed ()]: the same pregenerated Zipf-1.1 trace replayed
    with the route/result caches on (arm [on]) or off (arm [off]) after
    one global anti-entropy round, so both arms must report identical
    [routed] / [found].  Per arm: volume, hop percentiles and [qps], the
    serial-replay throughput over a modeled network (every hop charged
    the PlanetLab median delay, every cache probe a local lookup), so
    every metric is seed-deterministic.  [speedup] and [hop_reduction]
    compare the arms; [storm/*] audits cached answers under a live
    balance storm ([wrong_responsible] and [mismatch] must be 0) and
    [batch/*] measures shared-walk batching
    ({!Pgrid_query.Engine.lookup_many}). *)
val queries : peers:int -> count:int -> seed:int -> unit -> metric list
