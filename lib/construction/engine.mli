(** The construction protocol core, shared by the round-based simulator
    ({!Round}, Figure 6) and the message-level network engine
    ({!Net_engine}, Figures 7-9).

    One call to {!interact} performs a single initiated interaction —
    locate a partner (refer walk), then split / follow / replicate — and
    updates the overlay, the activity bookkeeping and the counters.  Hooks
    let the caller account messages and key transfers (the network engine
    turns them into simulated traffic) and observe re-activations (to
    restart a peer's initiation loop). *)

type mode = Theory | Heuristic

type config = {
  n_min : int;
  d_max : int;
  max_fruitless : int;
  refer_hops : int;
  mode : mode;
}

type hooks = {
  on_contact : src:int -> dst:int -> unit;  (** one pairwise contact *)
  on_key_moved : src:int -> dst:int -> unit;  (** one key, one hop *)
  on_reactivate : int -> unit;  (** peer flipped from passive to active *)
  contact_ok : src:int -> dst:int -> bool;
      (** veto on each contact attempt — a fault layer returns [false]
          when the exchange is lost (partition cut, bursty loss); the
          contact is still counted and the initiator goes fruitless.
          The default always admits. *)
}

(** Hooks that do nothing — the default for drivers that only need the
    telemetry-backed accounting. Counting itself does not live in hooks:
    every countable operation flows through one shared accounting path
    that updates {!counters}, fires the hook and emits the
    {!Pgrid_telemetry.Event} together, so the round driver and the
    network engine always agree on what was counted. *)
val no_hooks : hooks

type t

(** [create ?telemetry rng config overlay hooks] starts with every peer
    active. The engine only mutates peers through the given overlay.
    [telemetry] (default {!Pgrid_telemetry.Global.get}) receives one
    typed event per interaction, refer step, split, follow, replicate,
    descent and key movement. *)
val create :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  Pgrid_prng.Rng.t ->
  config ->
  Pgrid_core.Overlay.t ->
  hooks ->
  t

val overlay : t -> Pgrid_core.Overlay.t
val config : t -> config

(** [interact t i] lets peer [i] initiate one interaction (no-op when [i]
    is offline). *)
val interact : t -> int -> unit

(** [deliver t ~at key payloads] injects a key at peer [at] and keeps it
    where an {!Pgrid_core.Overlay.walk} of at most [refer_hops] hops
    toward it stops (used by re-insertion and hand-overs). *)
val deliver : t -> at:int -> Pgrid_keyspace.Key.t -> string list -> unit

val is_active : t -> int -> bool
val any_active : t -> bool

(** [note_useful t i] resets peer [i]'s fruitless counter, re-activating
    it (e.g. after it received new data from outside the engine). *)
val note_useful : t -> int -> unit

(** [note_crash t i] models a crash of peer [i]: the volatile interaction
    state (overlap estimates, fruitless counter) is wiped, while the
    persistent path and store — which live in the overlay — survive. *)
val note_crash : t -> int -> unit

(** Counters over the engine's lifetime. *)
type counters = {
  interactions : int;
  keys_moved : int;
  splits : int;
  follows : int;
  merges : int;
  descents : int;
      (** degenerate bisections: a partition whose sample was entirely
          one-sided descended into the occupied half without dispersing
          peers (common for ASCII term keys, which share leading bits) *)
  refer_steps : int;
}

val counters : t -> counters
