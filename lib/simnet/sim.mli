(** Discrete-event simulation core.

    A deterministic replacement for the paper's PlanetLab wall clock: a
    priority queue of timed callbacks.  Simulated time is in seconds.
    Events at equal times fire in scheduling order (a monotonic sequence
    number breaks ties), so runs are fully reproducible.

    The queue is a 4-ary heap of (time, sequence number, slot) in
    unboxed arrays; each callback waits in a slot table until it runs.
    Running or cancelling an event allocates nothing, and the queue
    stores a new event without allocating (its arrays grow by
    doubling), so a caller that reuses its closures leaves no garbage
    per event.  At most 2{^26} events may be pending at once. *)

type t

(** A fresh simulator at time 0. *)
val create : unit -> t

(** [now t] is the current simulated time in seconds. *)
val now : t -> float

(** [schedule t ~delay f] runs [f] at [now t +. delay]. Requires
    [delay >= 0]; a NaN delay raises [Invalid_argument]. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f] at absolute [time] (clamped to now).
    A NaN [time] raises [Invalid_argument]. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** [every t ~at ~until ~period f] runs [f] at [at] (clamped to now)
    and again [period ()] seconds after each run, calling [period] after
    [f], while the clock reads before [until]: the event due at or after
    [until] ends the process without running [f].  Each re-arm takes the
    next place in scheduling order.  [Invalid_argument] is raised at
    once for a NaN [at], and on re-arming for a NaN or negative period. *)
val every :
  t -> at:float -> until:float -> period:(unit -> float) -> (unit -> unit) -> unit

(** A handle on an event scheduled with {!timer}: an int, so storing
    one in a record field needs no write barrier. *)
type timer [@@immediate]

(** A handle that was never armed: cancelling it does nothing.  Useful
    to initialise a field that will later hold a live timer. *)
val no_timer : timer

(** [timer t ~delay f] schedules [f] like {!schedule} (same ordering
    rules; it takes the next place in scheduling order) and returns a
    handle that can {!cancel} it.  A NaN or negative delay raises
    [Invalid_argument]. *)
val timer : t -> delay:float -> (unit -> unit) -> timer

(** [cancel t h] takes [h]'s event out of the queue: it never runs and
    no longer counts in {!pending}.  Cancelling a timer that has already
    fired or was already cancelled does nothing, even if the queue has
    since handed its internal slot to another timer.  The other events
    keep their order. *)
val cancel : t -> timer -> unit

(** The timeout multiplier per retry of every retry ladder: 2. *)
val backoff : float

(** [backoff_delay rng ~base ~jitter k] is the delay before attempt
    [k + 1] of a retry ladder (the timeout of attempt [k], 0 for the
    first send): [base * backoff^k * (1 + jitter * U\[0,1))].  It draws
    one float from [rng] when [jitter > 0] and nothing otherwise. *)
val backoff_delay : Pgrid_prng.Rng.t -> base:float -> jitter:float -> int -> float

(** [run_until t ~time] processes every event scheduled strictly before
    [time], then sets the clock to [time].  A NaN [time] raises
    [Invalid_argument]. *)
val run_until : t -> time:float -> unit

(** [run t] processes events until the queue drains. *)
val run : t -> unit

(** [pending t] is the number of queued events; cancelled timers are
    not counted. *)
val pending : t -> int

(** [processed t] is the number of events executed since {!create} — the
    numerator of the events/second throughput the scale bench reports. *)
val processed : t -> int
