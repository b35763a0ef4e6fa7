(** Atomic multi-key writes: two-phase commit over routed inserts and
    deletes, with durable per-peer write-ahead intent logs and
    crash-recovery.

    The paper's inverted-file workload updates several key → posting
    entries per document; done as independent routed inserts, a crash
    mid-update leaves the document half-indexed.  This module makes the
    update atomic:

    - {b Prepare.}  The coordinator (any online peer) routes a prepare
      per touched key to the responsible peer and its online replicas.
      A participant that still covers the key logs a durable {e intent}
      (the write-ahead record), applies the write tentatively to its
      store, and acks.  Each prepare has a cancellable timeout with
      backoff and jitter ({!Pgrid_simnet.Sim.backoff_delay}); the first ack
      cancels it, and a participant that never acks within the retry
      budget is given up on.
    - {b Decide.}  Once every key gathered an ack the
      coordinator durably records {e commit}; any key that cannot be
      prepared durably records {e abort} (presumed abort: an absent or
      pending decision is never read as commit).
    - {b Commit.}  Participants are told to discard their intents; the
      tentatively applied data stays.
    - {b Abort.}  Each tentatively applied op is undone through the
      routed {!Overlay.delete} (replica fan-out), and participants are
      told to undo locally and drop their intents.
    - {b Recover.}  Crash-restart wipes volatile state only: the store
      and the logs survive, in-flight coordination does not
      ({!note_crash} invalidates a peer's outstanding driver
      callbacks).  {!recover_pass} replays every online peer's intent
      log against the durable decisions — committed intents are
      re-applied, aborted ones undone, and stale pendings resolved by
      presumed abort — so every settled document ends fully indexed or
      fully absent.

    Time and timers come from a {!Pgrid_simnet.Sim.t}, and messages go
    through a {!transport}: [Net_engine] and the txn experiment send
    them over the simulated network.  It consumes randomness only from
    the [Rng.t] it is created with (timeout jitter) and from the
    overlay's own stream (routing), so builds that never create a
    manager draw identically to pre-txn builds. *)

module Key = Pgrid_keyspace.Key

type op =
  | Put of { key : Key.t; payload : string }
  | Del of { key : Key.t; payload : string }

(** Wire phases, exposed so transports can label / size messages. *)
type phase = Prepare | Ack | Commit | Abort

(** [send ~phase ~src ~dst ~deliver] carries one protocol message;
    [deliver] runs when (and only if) the message reaches [dst]. *)
type transport = {
  send : phase:phase -> src:int -> dst:int -> deliver:(unit -> unit) -> unit;
}

(** {1 Retry profile}

    One ack settles a key.  A prepare's ack timeout starts at
    {!req_timeout} and grows by {!Pgrid_simnet.Sim.backoff} per retry,
    with 20% jitter; a participant gets 3 re-sends after the first try. *)

(** Base prepare-ack timeout: 2 s. *)
val req_timeout : float

(** Age beyond which a still-pending transaction is resolved by presumed
    abort during {!recover_pass}: 300 s. *)
val recover_after : float

type status = Pending | Committed | Aborted

type stats = {
  mutable begun : int;
  mutable committed : int;
  mutable aborted : int;
  mutable prepares : int;  (** intents logged across all participants *)
  mutable acks : int;
  mutable timeouts : int;
  mutable retries : int;
  mutable undos : int;  (** routed {!Overlay.delete}/insert undo ops *)
  mutable recovered : int;  (** intents resolved by {!recover_pass} *)
  mutable redelivered : int;
      (** committed ops re-applied during recovery (lost commit push) *)
}

type t

(** [create ?telemetry sim rng overlay ~transport] makes a
    transaction manager over [overlay], timed by [sim].  [rng] feeds
    timeout jitter only. *)
val create :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  Pgrid_simnet.Sim.t ->
  Pgrid_prng.Rng.t ->
  Overlay.t ->
  transport:transport ->
  t

(** [submit t ~coordinator ops] opens a transaction and starts driving
    it; returns its id immediately (the protocol completes through
    simulator events and [transport] callbacks — poll {!status}).  Requires
    [ops <> []] and an online coordinator. *)
val submit : t -> coordinator:int -> op list -> int

val status : t -> int -> status option

(** Transactions whose decision is still pending. *)
val in_flight : t -> int

(** Outstanding intent-log records across all peers. *)
val intent_count : t -> int

(** [note_crash t peer] models the loss of [peer]'s volatile state: its
    in-flight coordinations are abandoned (their fate falls to
    {!recover_pass}) and its pending participant callbacks die.  The
    intent log and the decision log survive, like the persisted store. *)
val note_crash : t -> int -> unit

(** [recover_pass t] replays every {e online} peer's durable intent log
    against the decision log (offline disks are unreachable until their
    peer returns), after first resolving transactions pending longer
    than [recover_after] by presumed abort.  Returns the number of
    intents resolved.  Idempotent; safe to run on any period. *)
val recover_pass : t -> int

(** [decisions t] lists settled and pending transactions as
    [(id, status, ops)], ascending by id. *)
val decisions : t -> (int * status * op list) list

(** [settled_docs t] projects settled pure-[Put] transactions sharing
    one payload — the document-indexing pattern — as
    [(payload, keys, committed)], ascending by id; the shape
    {!Health.check}'s [docs] argument wants. *)
val settled_docs : t -> (string * Key.t array * bool) list

val stats : t -> stats
