(** Streaming descriptive statistics (Welford's online algorithm).

    Numerically stable single-pass mean/variance, plus min/max tracking.
    Used throughout the experiment harness to aggregate repeated runs. *)

type t

(** A fresh, empty accumulator. *)
val create : unit -> t

(** [add t x] folds observation [x] into the accumulator. *)
val add : t -> float -> unit

(** [count t] is the number of observations folded so far. *)
val count : t -> int

(** [mean t] is the sample mean; [0.] when empty. *)
val mean : t -> float

(** [variance t] is the unbiased sample variance (n-1 denominator);
    [0.] for fewer than two observations. *)
val variance : t -> float

(** [stddev t] is [sqrt (variance t)]. *)
val stddev : t -> float

(** [min t] / [max t]; [nan] when empty. *)
val min : t -> float

val max : t -> float

(** [total t] is the running sum of observations. *)
val total : t -> float

(** [merge a b] is a fresh accumulator equivalent to having folded both
    streams (Chan's parallel combination). *)
val merge : t -> t -> t

(** [of_list xs] folds a whole list. *)
val of_list : float list -> t
