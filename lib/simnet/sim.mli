(** Discrete-event simulation core.

    A deterministic replacement for the paper's PlanetLab wall clock: a
    priority queue of timed callbacks.  Simulated time is in seconds.
    Events at equal times fire in scheduling order (a monotonic sequence
    number breaks ties), so runs are fully reproducible. *)

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

(** A handle on an event scheduled with {!timer}. *)
type timer

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
