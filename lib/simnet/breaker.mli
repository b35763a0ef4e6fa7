(** Per-(origin, target) circuit breakers.

    A breaker watches consecutive request failures (timeouts or sheds,
    as judged by the caller) from one origin to one target. After
    [failures] consecutive failures it opens: {!admits} refuses the
    pair for [cooldown] seconds, then lets exactly one half-open probe
    through. A successful probe closes the breaker ([Breaker_close]);
    a failed probe re-opens it for another full cool-down.

    The module draws no randomness and keeps no timers of its own — it
    reads the clock it was given (simulated time in the network
    engine), so an idle breaker costs nothing. *)

type config = {
  failures : int;  (** consecutive failures before opening, >= 1 *)
  cooldown : float;  (** seconds an open breaker refuses traffic, > 0 *)
}

(** 5 consecutive failures, 30 s cool-down. *)
val default_config : config

type t

(** [create ?telemetry cfg ~now] makes an empty breaker table reading
    time from [now]. [Breaker_open] / [Breaker_close] events go to
    [telemetry] (default {!Pgrid_telemetry.Global.get}). *)
val create : ?telemetry:Pgrid_telemetry.Telemetry.t -> config -> now:(unit -> float) -> t

(** [admits t ~origin ~target] asks whether a request may be sent.
    Closed breakers always admit; an open breaker past its cool-down
    transitions to half-open and admits the single probe; half-open
    breakers with their probe in flight refuse. *)
val admits : t -> origin:int -> target:int -> bool

(** The caller judged one admitted request failed (timeout / shed). *)
val record_failure : t -> origin:int -> target:int -> unit

(** The caller judged one admitted request succeeded. *)
val record_success : t -> origin:int -> target:int -> unit

(** [probing t ~origin ~target]: the circuit is half-open, its single
    probe in flight.  Right after {!admits} said yes, this tells whether
    that request is the probe. *)
val probing : t -> origin:int -> target:int -> bool

(** [abandon t ~origin ~target]: the caller withdrew its half-open probe
    before any verdict (a hedge race it lost).  A half-open circuit
    becomes probe-able again at once — open with its cool-down over, so
    the next {!admits} lets a new probe through; any other state is left
    alone. *)
val abandon : t -> origin:int -> target:int -> unit

(** Circuits currently half-open.  Scans the table; for tests and
    diagnostics. *)
val half_open : t -> int

(** Cumulative closed -> open transitions ([Breaker_open] events).  A
    failed half-open probe re-arms the cool-down but is not a new open:
    the circuit never closed in between. *)
val opens : t -> int

(** Breakers currently open or half-open. *)
val open_count : t -> int
