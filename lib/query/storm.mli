(** Heavy-traffic asynchronous lookups over the simulated network.

    {!Query.lookup_batch} walks the overlay synchronously — useful for
    recall and hop-count measurement, useless for studying load, because
    no message ever contends for a peer's service capacity.  [Storm]
    re-implements the lookup walk on top of {!Pgrid_simnet.Net} so every
    hop is a [Req]/[Resp] round trip that rides latency, loss and (when
    the network was created with a [service] model) the destination's
    bounded service queue.  It is the repo's one request module: the
    hardened query path of [Net_engine] is a [Storm] too.  Each attempt
    has a timeout (exponential backoff, optional jitter) and a bounded
    retry ladder; optionally, references that keep timing out are evicted
    by correction-on-use.  On top of that it adds the two client-side
    overload defences:

    - {b circuit breakers} ({!Pgrid_simnet.Breaker}) per (holder,
      reference) link, so a peer that keeps timing out — or silently
      shedding — stops receiving retries until a half-open probe gets
      through;
    - {b hedged requests}: when a hop has waited [hedge_after] seconds
      on its primary reference, one backup attempt is launched via the
      next admitted sibling reference ([Hedge_launch]); whichever reply
      arrives first advances the walk ([Hedge_win]); the loser's timeout
      is cancelled and its late reply is ignored.

    All scheduling is deterministic given the engine's RNG; the service
    model itself draws nothing.

    With telemetry off, a lookup allocates nothing that outlives its
    events except its {!completion} and the [Req]/[Resp] payloads in
    transit: its walk record, the walk's reference buffer and the
    walk's three timer closures are recycled from finished lookups, and
    timer handles are ints. *)

(** A lookup in progress and its current routing hop: its candidates,
    its attempts and their timers.  Walk records are recycled: a
    finished lookup's record carries a later one. *)
type walk

(** Wire protocol: one [Req]/[Resp] pair per routing attempt, answered
    from persistent state, plus [Deliver] for any other protocol that
    rides the same network: its closure runs iff the network delivers
    the message (loss, shedding and offline destinations drop it).  A
    request carries its walk and the reply echoes it, so the reply finds
    its hop without a table lookup; [rid] names the attempt (a retry or
    a hedge gets a fresh one; rids are never reused), and a reply whose
    attempt is no longer live is ignored, even when its walk has since
    moved to a later hop or a later lookup. *)
type wire =
  | Req of { walk : walk; rid : int; reply_to : int }
  | Resp of { walk : walk; rid : int }
  | Deliver of (unit -> unit)

type config = {
  req_timeout : float;  (** base per-request timeout, seconds, > 0 *)
  jitter : float;
      (** in \[0, 1): attempt [k] times out after
          [req_timeout * 2^k * (1 + jitter * U\[0,1))]
          ({!Pgrid_simnet.Sim.backoff_delay}), the uniform drawn right
          after the send; 0 draws nothing *)
  max_retries : int;  (** re-sends per primary target *)
  evict_after : int option;
      (** [Some n], [n >= 1]: the [n]th consecutive timeout on a (holder,
          reference) link evicts the reference
          ({!Pgrid_core.Maintenance.correct_on_use}) instead of retrying
          it, and a reply resets the link's count; a hop that runs out
          of references then takes one fresh snapshot of its level before
          giving up *)
  hedge_after : float option;  (** [Some h]: hedge a hop after [h] seconds *)
  breaker : Pgrid_simnet.Breaker.config option;  (** [Some]: circuit breakers *)
}

(** 4 s timeout, factor-2 backoff without jitter, 2 retries, no
    eviction, no hedging, no breakers — the {e unprotected} client. *)
val default_config : config

(** One finished lookup, in simulated seconds; [hops] counts the
    answered hops. *)
type completion = { issued_at : float; finished_at : float; hops : int; success : bool }

type stats = {
  issued : int;
  succeeded : int;
  failed : int;  (** budget exhausted or every reference dead/refused *)
  timeouts : int;
  retries : int;
  give_ups : int;  (** per-target retry ladders exhausted, or evicted *)
  evictions : int;  (** references evicted by correction-on-use *)
  hedges : int;  (** backup attempts launched *)
  hedge_wins : int;  (** hops where the backup answered first *)
  breaker_opens : int;
  breaker_skips : int;  (** references skipped while their breaker was open *)
  sheds : int;  (** from the network's service queues, all classes *)
  sheds_maintenance : int;
  sheds_query : int;
  queue_peak : int;
}

type t

(** Bytes accounted per storm message: 200. *)
val header_bytes : int

(** [create ?telemetry sim rng overlay net cfg] installs the storm's
    handler on [net] (replacing any previous one) and returns the idle
    engine.  [rng] draws each hop's candidates, one per try
    ({!Pgrid_core.Overlay.draw_candidate} over a copy of the level in
    the walk's own buffer, so an eviction during the hop does not change
    its candidates), timeout jitter and eviction refills; breaker state
    reads simulated time from [sim].  Every message is accounted at
    {!header_bytes}.  Raises [Invalid_argument] on a config outside the
    ranges above (NaN included). *)
val create :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  Pgrid_simnet.Sim.t ->
  Pgrid_prng.Rng.t ->
  Pgrid_core.Overlay.t ->
  wire Pgrid_simnet.Net.t ->
  config ->
  t

(** [issue t ~origin ~key] starts one asynchronous lookup; its outcome
    is recorded in {!completions} / {!stats} when the walk finishes.
    [origin] must be a peer id; {!Pgrid_core.Overlay.random_online}
    draws a uniform online one. *)
val issue : t -> origin:int -> key:Pgrid_keyspace.Key.t -> unit

(** [heartbeat t ~src ~dst] sends one maintenance-class [Deliver] that
    does nothing on arrival — background traffic for exercising the
    service model's priority classes. *)
val heartbeat : t -> src:int -> dst:int -> unit

(** Finished lookups, most recent first. *)
val completions : t -> completion list

(** Live request attempts: sent, and neither answered by a winning
    reply, nor timed out, nor abandoned when their hop resolved.  A
    counter; 0 once every lookup has finished. *)
val in_flight : t -> int

val stats : t -> stats

(** The engine's circuit breakers, when the config has them. *)
val breaker : t -> Pgrid_simnet.Breaker.t option
