(** Simulated message network: delivery with latency and loss, per-kind
    bandwidth accounting, and node online state.

    ['msg] is the protocol's message type; the installed handler receives
    each delivered message.  Bytes are accounted at send time into
    fixed-width time buckets, split into maintenance vs query traffic
    exactly as Figure 8 reports them. *)

type kind = Maintenance | Query

(** Per-message verdict returned by an installed fault hook: [drop] kills
    the message outright, [copies] (>= 1) is the number of deliveries
    scheduled (duplication faults set it above 1), and [delay_factor]
    scales the sampled latency (latency-spike windows). *)
type fate = { drop : bool; copies : int; delay_factor : float }

(** Bounded per-peer service model. Each online peer processes one
    message every [1 / service_rate] seconds from a FIFO queue whose
    head is the message in service. A message arriving when the queue
    already holds [queue_capacity] entries is shed; [Query] traffic is
    shed earlier, once the backlog reaches [query_threshold], so
    maintenance traffic (anti-entropy, txn intents, re-replication)
    keeps the remaining headroom under storm load. Draining is
    deterministic and consumes no RNG draws: enabling the model never
    perturbs the latency/loss stream of an existing seeded run. *)
type overload_config = {
  service_rate : float;  (** messages serviced per second, > 0 *)
  queue_capacity : int;  (** per-peer queue slots, >= 1 *)
  query_threshold : int;  (** query admission bound, in [1, queue_capacity] *)
}

(** 2 msg/s service, 16 slots, queries shed at a backlog of 12. *)
val default_overload : overload_config

type 'msg t

(** [create ?telemetry ?service sim rng ~nodes ~latency ~loss ~bucket]
    wires a network of [nodes] nodes (ids [0 .. nodes-1], all online)
    onto [sim]. [loss] is the independent drop probability per message;
    [bucket] the bandwidth accounting granularity in seconds.
    [telemetry] (default {!Pgrid_telemetry.Global.get}) receives a
    [Msg_send] per accounted transmission and [Msg_recv]/[Msg_drop] per
    delivery outcome, stamped with the message kind. [service] (default
    [None]) enables the bounded per-peer service queues; [None] is
    bit-identical legacy behaviour (immediate hand-off on arrival, no
    shedding). With the model on, a shed message emits [Msg_shed] and is
    counted by {!messages_shed} — not as a drop. A peer that goes
    offline with a non-empty queue keeps burning service slots, but each
    completed slot is a drop until it returns. *)
val create :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  ?service:overload_config ->
  Sim.t ->
  Pgrid_prng.Rng.t ->
  nodes:int ->
  latency:Latency.model ->
  loss:float ->
  bucket:float ->
  'msg t

val sim : 'msg t -> Sim.t
val nodes : 'msg t -> int

(** [set_handler t h] installs the delivery callback [h dst msg]. *)
val set_handler : 'msg t -> (int -> 'msg -> unit) -> unit

val online : 'msg t -> int -> bool
val set_online : 'msg t -> int -> bool -> unit
val online_count : 'msg t -> int

(** [send t ~src ~dst ~bytes ~kind msg] accounts [bytes] and schedules
    delivery after a sampled latency; the message is dropped when lost in
    transit or when [dst] is offline at delivery time (the paper's query
    failures under churn come from exactly this). Sending from an offline
    node is accounted as a drop (counter + [Msg_drop] event) without
    touching the wire.

    A message in transit rides a recycled envelope whose delivery
    closure was built with it, so a send allocates no closure and, with
    telemetry off, nothing that outlives the delivery event beyond the
    caller's message.  The envelope returns to the network's pool just
    before the handler runs; a pooled envelope keeps its last message
    until it carries another, so at most the peak number of messages
    in flight stay reachable that way. *)
val send : 'msg t -> src:int -> dst:int -> bytes:int -> kind:kind -> 'msg -> unit

(** [set_fault t hook] interposes [hook] on every in-transit decision:
    when installed, the network makes {e no} loss draw of its own — the
    hook's {!fate} decides drop/duplication/latency scaling (so the fault
    layer must fold {!base_loss} into its own process). [set_fault t None]
    restores the builtin independent-loss behaviour. *)
val set_fault : 'msg t -> (src:int -> dst:int -> fate) option -> unit

(** The [loss] probability the network was created with. *)
val base_loss : 'msg t -> float

(** [account ?src ?dst t ~bytes ~kind] records traffic without a
    message (used for local exchanges abstracted away from the handler
    level); [src]/[dst] (default [-1], "unattributed") only tag the
    telemetry event. *)
val account : ?src:int -> ?dst:int -> 'msg t -> bytes:int -> kind:kind -> unit

(** [bandwidth t kind] is the per-bucket aggregate series:
    [(bucket midpoint seconds, bytes per second)]. *)
val bandwidth : 'msg t -> kind -> (float * float) list

(** [messages_sent t] / [messages_dropped t]: totals. *)
val messages_sent : 'msg t -> int

val messages_dropped : 'msg t -> int

(** Total messages refused by bounded service queues (0 when the
    service model is off). *)
val messages_shed : 'msg t -> int

(** Sheds attributed to one traffic class. *)
val shed_of_kind : 'msg t -> kind -> int

(** Messages currently queued (including in service) across all peers. *)
val backlog : 'msg t -> int

(** Deepest single-peer queue observed so far. *)
val queue_peak : 'msg t -> int
