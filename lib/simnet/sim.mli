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

(** [run_until t ~time] processes every event scheduled strictly before
    [time], then sets the clock to [time].  A NaN [time] raises
    [Invalid_argument]. *)
val run_until : t -> time:float -> unit

(** [run t] processes events until the queue drains. *)
val run : t -> unit

(** [pending t] is the number of queued events. *)
val pending : t -> int

(** [processed t] is the number of events executed since {!create} — the
    numerator of the events/second throughput the scale bench reports. *)
val processed : t -> int
