(** The experiment registry: every paper figure and table, ablation and
    simulation experiment, declared once.

    An entry names its artifact, carries the banner and notes the bench
    prints above it, runs it, and declares the claims its metrics must
    satisfy.  A simulation experiment runs at the smoke size that CI
    and the tier-1 tests check, or at the full size its committed
    baseline records (resilience's two sizes are the same).  Paper
    figures and ablations have one size.
    [bench/main.exe], [pgrid figure] and [bench check] all read {!all}. *)

type direction = Figures.direction = Up | Down

(** [(name, value, direction)]. *)
type metric = Figures.metric

type block =
  | Series of Pgrid_stats.Series.figure
  | Grid of Figures.fig6
  | Table of { title : string; columns : string list; rows : string list list }

type output = { blocks : block list; metrics : metric list }

(** [digest out] is the MD5, in hex, of one rendering of [out]: every
    block (titles, labels, every cell) and every metric, each float in
    [%h], so two outputs share a digest only if they are the same to the
    last bit.  The identity manifests ([test/identity/]) record it. *)
val digest : output -> string

(** {1 Claims}

    A claim compares two expressions over an experiment's metrics, e.g.
    [on/peak_max_load <= bound/max_load]. *)

type expr =
  | Metric of string
  | Const of float
  | Times of float * expr
  | Plus of expr * expr
  | Count of string  (** how many metrics' names start with the string *)

type op = Lt | Le | Eq | Ge | Gt
type claim = { lhs : expr; op : op; rhs : expr }

(** [check metrics c] is [(holds, line)]: [line] shows [c] and the values
    it read.  A claim that reads a name [metrics] lacks, or counts a
    prefix no name starts with, does not hold. *)
val check : metric list -> claim -> bool * string

(** [judge metrics claims] is every verdict on one run: a failing one
    per name [metrics] reports more than once, then {!check} of each
    claim.  [bench check] and [bench identity] both judge with it. *)
val judge : metric list -> claim list -> (bool * string) list

(** {1 Tables} *)

(** Per-arm aggregates side by side: one column per arm (the name up to
    its last ['/']), one row per metric name after it.  Samples
    ([name@t]) are left out. *)
val summary : title:string -> metric list -> block

(** The samples ([arm/name@t]) side by side: one row per [t], in
    minutes, and one column per name and arm. *)
val series : title:string -> metric list -> block

(** {1 The registry} *)

type t = {
  name : string;
  title : string;
  notes : string list;
  run : reps:int option -> smoke:bool -> seed:int -> output;
      (** [reps] overrides the repetitions of the paper artifacts that
          average over them; [smoke] selects a simulation experiment's
          smoke size. *)
  claims : claim list;
}

(** In bench order: figures 3-9 and Table 1, resilience, the six
    ablations, then the simulation experiments. *)
val all : t list

(** [find name] is the entry called [name].
    @raise Invalid_argument naming the valid entries if there is none. *)
val find : string -> t
