(** Mean-value (Markov) models of one decentralized bisection
    (paper Section 3.1, simulated as models "MVA" and "SAM" in 3.3).

    The sequential model: at step [i] one undecided peer contacts a peer
    chosen uniformly among the other [n]; expected increments are

    - balanced split:      alpha * (u - 1) / n   to both sides,
    - contacted 0-decided: p0 / n                to side 1,
    - contacted 1-decided: beta * p1 / n         to side 0 and
                           (1 - beta) * p1 / n   to side 1,

    where [u = n + 1 - p0 - p1] undecided peers remain.  The recursion
    terminates when [p0 + p1 = n + 1] (a fractional final step is allowed,
    as in the paper's analysis). *)

type outcome = {
  p0 : float;  (** peers decided for side 0 at termination *)
  p1 : float;  (** peers decided for side 1 at termination *)
  interactions : float;  (** number of steps until termination *)
}

(** [run_exact ~n ~p] iterates the model with the exact AEP probabilities
    for [p] (model MVA). [n + 1] peers take part; requires [n >= 1] and
    [0 < p <= 1/2]. *)
val run_exact : n:int -> p:float -> outcome

(** [run_sampled rng ~n ~p ~samples] re-estimates [p] at every step from
    [samples] Bernoulli(p) draws and uses probabilities derived from the
    (clamped) estimate (model SAM). *)
val run_sampled : Pgrid_prng.Rng.t -> n:int -> p:float -> samples:int -> outcome

(** [run_mixture ~n ~p ~samples] runs the deterministic class-mixture mean
    value model of the discrete process: peers are partitioned into the
    [samples + 1] binomial estimate classes, each with its own (alpha,
    beta, flipped) parameters, and the expected dynamics are iterated to
    termination.  This model reproduces the systematic sampling bias of
    the agent simulation without randomness, and is what the COR response
    calibration is computed from. *)
val run_mixture : n:int -> p:float -> samples:int -> outcome

(** [run_mixture_with ~n ~p ~samples ~adjust] is [run_mixture] with every
    class estimate passed through [adjust] before the probabilities are
    derived (identity gives [run_mixture]). *)
val run_mixture_with :
  n:int -> p:float -> samples:int -> adjust:(float -> float) -> outcome
