(** Sequential construction baseline: the "standard maintenance model" of
    one-at-a-time node joins the paper argues against (Sections 1, 4.3).

    Peers join an existing overlay one after another: route to the leaf
    partition responsible for one of the joiner's keys, then either split
    that partition with the hosting peer or become its replica, then
    insert the joiner's remaining keys by routing.  Message cost is
    comparable to the parallel construction (O(n log n) vs O(n log^2 n)),
    but the *latency* is the serialized sum of join round-trips —
    O(n log n) — whereas the parallel construction finishes in O(log^2 n)
    rounds.  The [ablation-seq] bench regenerates exactly this
    comparison, at the parallel construction's parameters
    ({!Round.default_params}: [keys_per_peer], [n_min], [d_max]); a join
    copies 2 references per level. *)

type outcome = {
  overlay : Pgrid_core.Overlay.t;
  reference : Pgrid_partition.Reference.t;
  deviation : float;
  messages : int;  (** total routed hops + transfers *)
  serial_latency : int;
      (** critical-path length in round-trip units: joins are sequential,
          so every hop of every join adds to the completion time *)
}

val run : Pgrid_prng.Rng.t -> peers:int -> spec:Pgrid_workload.Distribution.spec -> outcome
