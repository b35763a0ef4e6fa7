module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Aep_math = Pgrid_partition.Aep_math
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

type mode = Theory | Heuristic

type config = {
  n_min : int;
  d_max : int;
  max_fruitless : int;
  refer_hops : int;
  mode : mode;
}

type hooks = {
  on_contact : src:int -> dst:int -> unit;
  on_key_moved : src:int -> dst:int -> unit;
  on_reactivate : int -> unit;
  contact_ok : src:int -> dst:int -> bool;
}

let no_hooks =
  {
    on_contact = (fun ~src:_ ~dst:_ -> ());
    on_key_moved = (fun ~src:_ ~dst:_ -> ());
    on_reactivate = ignore;
    contact_ok = (fun ~src:_ ~dst:_ -> true);
  }

type counters = {
  interactions : int;
  keys_moved : int;
  splits : int;
  follows : int;
  merges : int;
  descents : int;
  refer_steps : int;
}

type t = {
  rng : Rng.t;
  config : config;
  net : Overlay.t;
  hooks : hooks;
  tel : Telemetry.t;
  active : bool array;
  fruitless : int array;
  (* Per-peer smoothed overlap estimates for the current partition (reset
     on path change): deciding on single noisy draws systematically
     over-splits, and a plain running mean never forgets stale early
     observations, so an exponential moving average is kept. *)
  obs_count : int array;
  k_ema : float array;
  r_ema : float array;
  mutable interactions : int;
  mutable keys_moved : int;
  mutable splits : int;
  mutable follows : int;
  mutable merges : int;
  mutable descents : int;
  mutable refer_steps : int;
}

let create ?(telemetry = Pgrid_telemetry.Global.get ()) rng config net hooks =
  let n = Overlay.size net in
  {
    rng;
    config;
    net;
    hooks;
    tel = telemetry;
    active = Array.make n true;
    fruitless = Array.make n 0;
    obs_count = Array.make n 0;
    k_ema = Array.make n 0.;
    r_ema = Array.make n 0.;
    interactions = 0;
    keys_moved = 0;
    splits = 0;
    follows = 0;
    merges = 0;
    descents = 0;
    refer_steps = 0;
  }

let overlay t = t.net
let config t = t.config
let node t i = Overlay.node t.net i
let is_active t i = t.active.(i)
let any_active t = Array.exists (fun a -> a) t.active

let counters t =
  {
    interactions = t.interactions;
    keys_moved = t.keys_moved;
    splits = t.splits;
    follows = t.follows;
    merges = t.merges;
    descents = t.descents;
    refer_steps = t.refer_steps;
  }

(* The single accounting path: every countable protocol operation goes
   through exactly one of these helpers, which update the lifetime
   counters, fire the caller's hook and emit the telemetry event
   together — the round driver and the network engine cannot diverge in
   what they count. *)

let note_contact t ~src ~dst =
  t.interactions <- t.interactions + 1;
  t.hooks.on_contact ~src ~dst;
  if Telemetry.active t.tel then Telemetry.emit t.tel (Event.Interaction { src; dst })

let note_refer t ~src ~dst ~level =
  t.refer_steps <- t.refer_steps + 1;
  if Telemetry.active t.tel then Telemetry.emit t.tel (Event.Refer { src; dst; level })

let note_key_moved t ~src ~dst =
  t.keys_moved <- t.keys_moved + 1;
  t.hooks.on_key_moved ~src ~dst;
  if Telemetry.active t.tel then Telemetry.emit t.tel (Event.Key_move { src; dst })

let note_split t ~a ~b ~level =
  t.splits <- t.splits + 1;
  if Telemetry.active t.tel then Telemetry.emit t.tel (Event.Split { a; b; level })

let note_follow t ~peer ~level =
  t.follows <- t.follows + 1;
  if Telemetry.active t.tel then Telemetry.emit t.tel (Event.Follow { peer; level })

let note_merge t ~a ~b =
  t.merges <- t.merges + 1;
  if Telemetry.active t.tel then Telemetry.emit t.tel (Event.Replicate { a; b })

let note_descent t ~a ~b ~level =
  t.descents <- t.descents + 1;
  if Telemetry.active t.tel then Telemetry.emit t.tel (Event.Descent { a; b; level })

let reset_estimates t i =
  t.obs_count.(i) <- 0;
  t.k_ema.(i) <- 0.;
  t.r_ema.(i) <- 0.

let ema_weight = 0.4

let fold_estimate t i ~distinct ~replicas =
  if t.obs_count.(i) = 0 then begin
    t.k_ema.(i) <- distinct;
    t.r_ema.(i) <- replicas
  end
  else begin
    t.k_ema.(i) <- ((1. -. ema_weight) *. t.k_ema.(i)) +. (ema_weight *. distinct);
    t.r_ema.(i) <- ((1. -. ema_weight) *. t.r_ema.(i)) +. (ema_weight *. replicas)
  end;
  t.obs_count.(i) <- t.obs_count.(i) + 1

let mark_useful t i =
  t.fruitless.(i) <- 0;
  if not t.active.(i) then begin
    t.active.(i) <- true;
    t.hooks.on_reactivate i
  end

let note_useful = mark_useful

(* A crash-restarted peer keeps its path and store (persistent) but loses
   the volatile interaction state: overlap estimates and the fruitless
   counter start over. *)
let note_crash t i =
  t.fruitless.(i) <- 0;
  t.obs_count.(i) <- 0;
  t.k_ema.(i) <- 0.;
  t.r_ema.(i) <- 0.

let mark_fruitless t i =
  t.fruitless.(i) <- t.fruitless.(i) + 1;
  if t.fruitless.(i) >= t.config.max_fruitless then t.active.(i) <- false

(* One uniform draw over the online references at [level], skipping
   [excluding] — reference picking sits on every routing hop. *)
let pick_online_ref t n ~level ~excluding =
  let count =
    if Node.refs_count n ~level = 0 then 0
    else Overlay.eligible t.net ~src:n.Node.id ~excluding n.Node.refs.(level)
  in
  if count = 0 then None else Some (Overlay.draw t.net t.rng count)

let probabilities t ~p_hat ~samples =
  let clamped = Aep_math.clamp_estimate ~samples:(max 1 samples) p_hat in
  let p_eff, flipped = Aep_math.normalize clamped in
  let probs =
    match t.config.mode with
    | Theory -> Aep_math.probabilities ~p:p_eff
    | Heuristic -> Aep_math.heuristic ~p:p_eff
  in
  (probs, flipped)

(* Deliver one key (with payloads) starting at peer [at]: ingest when the
   partition matches, else forward along a routing reference toward the
   key.  Every hop moves the key once (bandwidth).  Keys that cannot be
   routed are kept where they are rather than lost. *)
let deliver t ~at key payloads =
  let ingest i =
    ignore (Node.merge_key (node t i) key payloads);
    mark_useful t i
  in
  let rec hop prev i budget =
    note_key_moved t ~src:prev ~dst:i;
    let n = node t i in
    if budget = 0 then ingest i
    else
      match Overlay.divergence_level n.Node.path key with
      | None -> ingest i
      | Some l ->
        (match pick_online_ref t n ~level:l ~excluding:(-1) with
        | None -> ingest i
        | Some r -> hop i r (budget - 1))
  in
  hop at at t.config.refer_hops

(* Transfer every (key, payloads) of [src] outside [src]'s new path,
   entering the network at [dst] (which forwards what it does not own).
   All doomed keys leave [src] before the first delivery; removing and
   delivering them one by one would give the same stores: a key routed
   back to [src] lands at its bucket's front either way, and the table
   never grows past its size before the cut, so it never resizes. *)
let hand_over t ~src ~dst =
  let s = node t src in
  List.iter
    (fun (k, payloads) -> deliver t ~at:dst k payloads)
    (Node.cut_outside s s.Node.path)

(* Balanced split of a same-path pair. *)
let do_split t i j =
  let ni = node t i and nj = node t j in
  let level = Path.length ni.Node.path in
  let bit_i = if Rng.bool t.rng then 0 else 1 in
  Node.set_path ni (Path.extend ni.Node.path bit_i);
  Node.set_path nj (Path.extend nj.Node.path (1 - bit_i));
  hand_over t ~src:i ~dst:j;
  hand_over t ~src:j ~dst:i;
  Node.add_ref ni ~level j;
  Node.add_ref nj ~level i;
  (* Replica lists referred to the parent partition; they are rebuilt at
     the new level through replicate interactions. *)
  Node.clear_replicas ni;
  Node.clear_replicas nj;
  reset_estimates t i;
  reset_estimates t j;
  note_split t ~a:i ~b:j ~level;
  mark_useful t i;
  mark_useful t j

(* Same-partition meeting: split vs replicate, decided on the pooled mean
   of the overlap estimates (paper Section 4.2). *)
let same_partition t i j =
  let ni = node t i and nj = node t j in
  let d1 = Node.key_count ni and d2 = Node.key_count nj in
  let level = Path.length ni.Node.path in
  (* One pass over the smaller store yields the shared-key count and — for
     the degenerate-bisection check below — how many shared keys have bit
     0 at this level; no key list is ever materialized or sorted. *)
  let small, big = if d1 <= d2 then (ni, nj) else (nj, ni) in
  let shared = ref 0 and shared_zeros = ref 0 in
  Node.fold small
    (fun k _ () ->
      if Node.has_key big k then begin
        incr shared;
        if level < Key.bits && Key.bit k level = 0 then incr shared_zeros
      end)
    ();
  let overlap = !shared in
  let distinct_obs = Estimate.distinct_keys ~d1 ~d2 ~overlap in
  let replicas_obs = Estimate.replicas ~n_min:t.config.n_min ~d1 ~d2 ~overlap in
  let replicas_capped =
    Float.min replicas_obs (2. *. float_of_int (Overlay.size t.net))
  in
  fold_estimate t i ~distinct:distinct_obs ~replicas:replicas_capped;
  fold_estimate t j ~distinct:distinct_obs ~replicas:replicas_capped;
  let obs = t.obs_count.(i) + t.obs_count.(j) in
  let distinct = (t.k_ema.(i) +. t.k_ema.(j)) /. 2. in
  (* The overlap-based estimate assumes every key still has n_min live
     copies; hand-overs consolidate copies, so it can undercount a large
     partition.  The replica lists give a hard lower bound. *)
  let known_peers =
    float_of_int (2 + max (Node.replica_count ni) (Node.replica_count nj))
  in
  let replicas = Float.max ((t.r_ema.(i) +. t.r_ema.(j)) /. 2.) known_peers in
  Logs.debug (fun m ->
      m "meet level=%d d1=%d d2=%d overlap=%d K^=%.0f r^=%.1f obs=%d" level d1 d2
        overlap distinct replicas obs);
  let overloaded =
    (* Splitting needs enough peers that both halves can keep n_min
       replicas (Algorithm 1's leaves stay between n_min and ~3 n_min). *)
    distinct > float_of_int t.config.d_max
    && replicas >= float_of_int (2 * t.config.n_min)
    && level < Key.bits
  in
  if overloaded && obs >= 2 then begin
    (* Union statistics by inclusion-exclusion over the incremental
       per-node counters: |U| = d1 + d2 - overlap, and likewise for the
       zero-bit counts (both nodes share the path, hence the level). *)
    let union_total = d1 + d2 - overlap in
    let zeros = Node.zero_count ni + Node.zero_count nj - !shared_zeros in
    if union_total > 0 && (zeros = 0 || zeros = union_total) then begin
      (* Degenerate bisection: the sample says one half is empty (e.g.
         ASCII term keys share their leading bits).  Dispersing peers into
         empty key space would strand them, so the pair descends together
         into the occupied half; nothing is exchanged and no reference
         exists at this level (the complement holds no peers). *)
      let bit = if zeros = 0 then 1 else 0 in
      Node.set_path ni (Path.extend ni.Node.path bit);
      Node.set_path nj (Path.extend nj.Node.path bit);
      reset_estimates t i;
      reset_estimates t j;
      note_descent t ~a:i ~b:j ~level;
      mark_useful t i;
      mark_useful t j
    end
    else begin
      let p_hat = Estimate.load_fraction_counts ~zeros ~total:union_total in
      let { Aep_math.alpha; _ }, _flipped =
        probabilities t ~p_hat ~samples:union_total
      in
      if Rng.bernoulli t.rng alpha then do_split t i j
      else begin
        (* Finding a split partner is useful even when the coin declines
           (liveness at strongly skewed partitions). *)
        mark_useful t i;
        mark_useful t j
      end
    end
  end
  else if overloaded then begin
    (* Single observation: record it and wait for confirmation before
       splitting; merging now would destroy the overlap information. *)
    mark_useful t i;
    mark_useful t j
  end
  else begin
    (* Replicate: reconcile stores and record each other.  The overlap
       pass above says how many keys each direction adds; a direction
       that adds no key and carries no payload would change nothing. *)
    let gained = ref false in
    let copy src dst ~fresh_keys =
      let s = node t src and d = node t dst in
      if fresh_keys > 0 || Node.payload_key_count s > 0 then begin
        let fresh = Node.merge_store d ~from:s in
        for _ = 1 to fresh do
          note_key_moved t ~src ~dst
        done;
        (* Only new distinct keys count as progress; payload-level
           reconciliation must not keep peers active forever. *)
        if fresh > 0 then gained := true
      end
    in
    copy i j ~fresh_keys:(d1 - overlap);
    copy j i ~fresh_keys:(d2 - overlap);
    (* Exchange routing tables as well (paper Figure 2, possibility 3):
       this repairs levels where a believed-empty complement was
       colonized after a degenerate descent. *)
    let exchange_refs a b =
      let na = node t a and nb = node t b in
      for level = 0 to Path.length na.Node.path - 1 do
        Node.union_refs nb ~level ~from:na
      done
    in
    exchange_refs i j;
    exchange_refs j i;
    let new_replica =
      (not (Pgrid_core.Intset.mem ni.Node.replicas j))
      || not (Pgrid_core.Intset.mem nj.Node.replicas i)
    in
    Node.add_replica ni j;
    Node.add_replica nj i;
    (* Exchange (partial) replica lists, paper Figure 2 — one linear merge
       per direction instead of a List.mem per element. *)
    Node.absorb_replicas nj ni.Node.replicas;
    Node.absorb_replicas ni nj.Node.replicas;
    note_merge t ~a:i ~b:j;
    if !gained || new_replica then begin
      mark_useful t i;
      mark_useful t j
    end
    else mark_fruitless t i
  end

(* The initiator [i] is undecided at level [len path_i]; [j] has already
   extended there: AEP rules 3/4. *)
let follow_decided t i j =
  let ni = node t i and nj = node t j in
  let level = Path.length ni.Node.path in
  (* [ni]'s zero-bit counter is maintained at exactly this level, so the
     degenerate-descent test and the load fraction are O(1) reads. *)
  let total = Node.key_count ni in
  let zeros = Node.zero_count ni in
  let j_side_raw = Path.bit nj.Node.path level in
  if total > 0
     && (zeros = 0 || zeros = total)
     && j_side_raw = (if zeros = 0 then 1 else 0)
     && Node.refs_count nj ~level = 0
  then begin
    (* The peer's whole sample lies on the side [j] descended to, and [j]
       itself knows nobody on the other side: follow the degenerate
       descent (no complement peer exists to reference). *)
    Node.set_path ni (Path.extend ni.Node.path j_side_raw);
    Node.clear_replicas ni;
    reset_estimates t i;
    note_follow t ~peer:i ~level;
    mark_useful t i
  end
  else begin
  let p_hat = Estimate.load_fraction_counts ~zeros ~total in
  let { Aep_math.alpha = _; beta }, flipped =
    probabilities t ~p_hat ~samples:total
  in
  let minority = if flipped then 1 else 0 in
  let majority = 1 - minority in
  let j_side = Path.bit nj.Node.path level in
  let decide side other =
    Node.set_path ni (Path.extend ni.Node.path side);
    Node.add_ref ni ~level other;
    (* The complement peer learns about the newcomer too (it may have had
       an empty table at this level if the side was believed empty). *)
    if Path.bit (node t other).Node.path level <> side then
      Node.add_ref (node t other) ~level i;
    Node.clear_replicas ni;
    reset_estimates t i;
    let recipient =
      if Path.bit (node t other).Node.path level <> side then other else j
    in
    hand_over t ~src:i ~dst:recipient;
    note_follow t ~peer:i ~level;
    mark_useful t i;
    mark_useful t recipient
  in
  if j_side = minority then decide majority j
  else if Rng.bernoulli t.rng beta then decide minority j
  else begin
    (* Copy a minority-side reference from [j] (AEP invariant: it holds
       one from its own decision at this level). *)
    match pick_online_ref t nj ~level ~excluding:(-1) with
    | None -> mark_fruitless t i
    | Some r -> decide majority r
  end
  end

(* Locate an interaction partner: walk refer recommendations until the
   contacted peer's partition is compatible (equal or prefix-related). *)
let rec locate t i j hops =
  note_contact t ~src:i ~dst:j;
  if not ((node t j).Node.online && t.hooks.contact_ok ~src:i ~dst:j) then None
  else begin
    let pi = (node t i).Node.path and pj = (node t j).Node.path in
    let cpl = Path.common_prefix_length pi pj in
    if cpl = Path.length pi || cpl = Path.length pj then Some j
    else if hops >= t.config.refer_hops then None
    else begin
      (* Divergent: exchange routing references at the divergence level,
         then follow a recommendation from [j]'s table. *)
      note_refer t ~src:i ~dst:j ~level:cpl;
      Node.add_ref (node t i) ~level:cpl j;
      Node.add_ref (node t j) ~level:cpl i;
      match pick_online_ref t (node t j) ~level:cpl ~excluding:i with
      | None -> None
      | Some r -> locate t i r (hops + 1)
    end
  end

let random_online_peer t ~excluding =
  let n = Overlay.size t.net in
  let rec try_ attempts =
    if attempts = 0 then None
    else begin
      let j = Rng.int t.rng n in
      if j <> excluding && (node t j).Node.online then Some j else try_ (attempts - 1)
    end
  in
  try_ (4 * n)

let interact t i =
  let ni = node t i in
  if ni.Node.online then begin
    let first =
      (* Prefer known replicas half of the time (peers keep the references
         gathered after splits); otherwise a random-walk peer. *)
      let online = Overlay.eligible t.net ~src:i ~excluding:(-1) ni.Node.replicas in
      if online > 0 && Rng.bool t.rng then Some (Overlay.draw t.net t.rng online)
      else random_online_peer t ~excluding:i
    in
    match first with
    | None -> mark_fruitless t i
    | Some first ->
      (match locate t i first 0 with
      | None -> mark_fruitless t i
      | Some j ->
        let li = Path.length (node t i).Node.path
        and lj = Path.length (node t j).Node.path in
        if li = lj then same_partition t i j
        else if li < lj then follow_decided t i j
        else follow_decided t j i)
  end
