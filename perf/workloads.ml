(* The four benchmark workloads.

   Each workload is split into a set-up, which builds every input from the
   seed ([seed + k] sub-streams) through the libraries' public APIs, and a
   measured phase that replays the pregenerated inputs as a single
   closed-loop client (simnet-storm: an open loop in simulated time).  Only
   calls into public library functions are timed; the answers are audited
   between calls and every violation counts as a failed operation.

   Sizes are arguments so the smoke test runs the very same code at toy
   size. *)

module Rng = Pgrid_prng.Rng
module Sample = Pgrid_prng.Sample
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Distribution = Pgrid_workload.Distribution
module Reference = Pgrid_partition.Reference
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Deviation = Pgrid_core.Deviation
module Balance = Pgrid_core.Balance
module Reconcile = Pgrid_core.Reconcile
module Round = Pgrid_construction.Round
module Construct = Pgrid_construction.Engine
module Engine = Pgrid_query.Engine
module Qcache = Pgrid_query.Qcache
module Storm = Pgrid_query.Storm
module Sim = Pgrid_simnet.Sim
module Net = Pgrid_simnet.Net
module Latency = Pgrid_simnet.Latency
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

type sizes = {
  builds : int;  (** independent constructions in the build workload *)
  build_peers : int;  (** population of each of them *)
  peers : int;  (** population of the overlay the other three share *)
  lookups : int;  (** trace length of lookup-zipf *)
  mix_ops : int;  (** client operations of write-mix *)
  balance_every : int;  (** write-mix ops between Balance.pass calls *)
  sync_every : int;  (** write-mix ops between Reconcile.sync_pair calls *)
  storm_horizon : float;  (** simulated seconds of arrivals *)
  storm_rate : float;  (** Poisson arrival rate, lookups per simulated s *)
  audit_lookups : int;  (** searches auditing each constructed overlay *)
  direct_pairs : int;  (** (origin, key) pairs for direct layer calls *)
}

(* Work proportional to [seconds], scaled so that each workload's measured
   phase lasts about [seconds] on a 2-vCPU x86-64 VM.  The problem sizes
   are fixed, so a per-operation cost does not depend on the run length:
   build runs more constructions of the same size, and the overlay the
   three query workloads share has one size, so set-up cost is the same at
   any run length. *)
let sizes ~seconds =
  let s = float_of_int seconds in
  {
    builds = max 1 (seconds * 3 / 8);
    build_peers = 6_000;
    peers = 5_000;
    lookups = int_of_float (100_000. *. s);
    mix_ops = int_of_float (36_000. *. s);
    balance_every = 2_000;
    sync_every = 50;
    storm_horizon = 135. *. s;
    storm_rate = 200.;
    audit_lookups = 50_000;
    direct_pairs = 100_000;
  }

let toy =
  {
    builds = 2;
    build_peers = 300;
    peers = 300;
    lookups = 2_000;
    mix_ops = 2_000;
    balance_every = 500;
    sync_every = 50;
    storm_horizon = 60.;
    storm_rate = 20.;
    audit_lookups = 300;
    direct_pairs = 1_000;
  }

type ctx = {
  seed : int;
  spans : Spans.t;
  tel : Telemetry.t;  (** active only in traced runs *)
}

(* [q]-quantile of [a], interpolating between order statistics. *)
let quantile a q =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median a = quantile a 0.5

(* Timing metrics are taken per chunk of the measured phase and reported
   as the chunks' faster quartile: the third quartile of their throughputs
   and the first of their latencies.  Interference from outside the
   process only ever slows a chunk, and on a shared host it comes and goes
   in spells of seconds to minutes during which latency percentiles jump
   by up to half.  The median flips whenever such a spell covers about
   half a run; the faster quartile moves only when it covers three
   quarters. *)
let faster_quartile = 0.25

(* Growable sample buffer (latencies in us). *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create cap = { a = Array.make (max 16 cap) 0.; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let push_ns t ns = push t (float_of_int ns /. 1e3)

  (* Nearest-rank percentile of samples [pos, pos + len), [q] in (0, 1]. *)
  let percentile_of t ~pos ~len q =
    if len = 0 then 0.
    else begin
      let s = Array.sub t.a pos len in
      Array.sort Float.compare s;
      s.(max 0 (min (len - 1) (int_of_float (ceil (q *. float_of_int len)) - 1)))
    end

  let percentile t q = percentile_of t ~pos:0 ~len:t.n q

  (* The first quartile, over [chunks] equal consecutive slices of the
     samples, of each slice's [q]-percentile: see [faster_quartile]. *)
  let chunked_percentile t ~chunks q =
    let chunks = max 1 (min chunks t.n) in
    let len = t.n / chunks in
    quantile (Array.init chunks (fun c -> percentile_of t ~pos:(c * len) ~len q)) faster_quartile

  let mean t =
    if t.n = 0 then 0.
    else begin
      let acc = ref 0. in
      for i = 0 to t.n - 1 do
        acc := !acc +. t.a.(i)
      done;
      !acc /. float_of_int t.n
    end
end

(* Throughput per chunk of a measured phase, cut into [chunks] equal
   parts. *)
module Rates = struct
  let chunks = 16

  type t = { per : int; mutable ops : int; mutable ns : int; mutable done_ : float list }

  let create ~total = { per = max 1 (total / chunks); ops = 0; ns = 0; done_ = [] }

  let add t ~ops ~ns =
    t.ops <- t.ops + ops;
    t.ns <- t.ns + ns

  let close t =
    if t.ns > 0 then t.done_ <- (float_of_int t.ops /. (float_of_int t.ns /. 1e9)) :: t.done_;
    t.ops <- 0;
    t.ns <- 0

  (* Closes the current chunk once it holds [total / chunks] operations. *)
  let tick t = if t.ops >= t.per then close t

  (* The rates of the full chunks; a trailing partial chunk counts only
     when there is no full one. *)
  let rates t =
    if t.done_ = [] then close t;
    Array.of_list (List.rev t.done_)
end

(* What one measured phase reports. *)
type measured = {
  ops : int;  (** client operations completed *)
  rates : float array;  (** ops per second of each chunk of the phase *)
  wall_ns : int;  (** wall time of the whole measured loop, audits included *)
  latency_us : Samples.t;  (** per client operation, in operation order *)
  latency_chunks : int;  (** slices for [Samples.chunked_percentile] *)
  hops_mean : float;
  deviation : float;
  load_p99_ratio : float;
  attempted : int;
  failed : int;  (** failed operations plus audit violations *)
  layer : (string * float) list;  (** per-layer metrics (traced runs) *)
}

type workload = {
  name : string;
  prepare : ctx -> sizes -> unit -> measured;
      (** set-up; the returned closure runs the measured phase *)
}

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* 99th percentile of the keys stored per online peer, over [d_max].  The
   maximum is left out: a single straggler peer whose short path covers a
   wide interval can hold fifteen times [d_max] on one seed and three times
   on the next. *)
let load_p99_ratio overlay ~d_max =
  let loads = Samples.create (Overlay.size overlay) in
  Overlay.iter overlay (fun n ->
      if n.Node.online then Samples.push loads (float_of_int (Node.key_count n)));
  Samples.percentile loads 0.99 /. float_of_int d_max

(* A routed answer is correct when its peer is online and responsible for
   the key and the reported presence matches that peer's store. *)
let audit_lookup overlay key (r : Engine.outcome) ~must_find =
  match r.Engine.responsible with
  | None -> false
  | Some id ->
    let n = Overlay.node overlay id in
    n.Node.online && Node.responsible_for n key
    && r.Engine.key_present = Node.has_key n key
    && ((not must_find) || r.Engine.key_present)

(* --- direct layer calls on a workload's final state (traced runs) ------ *)

(* Routes each pair step by step with [Overlay.forward]; returns ns per
   step and each walk's responsible peer (-1 on a dead end). *)
let direct_forward ctx overlay origins keys =
  let sp = ctx.spans in
  let n = Array.length origins in
  let targets = Array.make n (-1) in
  let steps = ref 0 in
  let t0 = Spans.enter sp (Spans.name sp "overlay.forward") in
  for i = 0 to n - 1 do
    let rec walk cur budget =
      if budget > 0 then
        match Overlay.forward overlay cur keys.(i) with
        | `Responsible -> targets.(i) <- cur.Node.id
        | `Dead_end _ -> ()
        | `Next id ->
          incr steps;
          walk (Overlay.node overlay id) (budget - 1)
    in
    walk (Overlay.node overlay origins.(i)) Overlay.max_hops
  done;
  let t1 = Spans.leave sp ~op:(-1) in
  (float_of_int (t1 - t0) /. float_of_int (max 1 !steps), targets)

let direct_qcache ctx cache origins keys targets =
  let sp = ctx.spans in
  let n = Array.length origins in
  let t0 = Spans.enter sp (Spans.name sp "qcache.probe") in
  for i = 0 to n - 1 do
    ignore (Qcache.probe cache ~at:origins.(i) keys.(i))
  done;
  let t1 = Spans.leave sp ~op:(-1) in
  let learned = ref 0 in
  let t2 = Spans.enter sp (Spans.name sp "qcache.learn") in
  for i = 0 to n - 1 do
    if targets.(i) >= 0 then begin
      incr learned;
      Qcache.learn cache ~at:origins.(i) ~key:keys.(i) ~target:targets.(i)
        ~present:true ~payloads:[]
    end
  done;
  let t3 = Spans.leave sp ~op:(-1) in
  [
    ("qcache.probe_ns", float_of_int (t1 - t0) /. float_of_int (max 1 n));
    ("qcache.learn_ns", float_of_int (t3 - t2) /. float_of_int (max 1 !learned));
  ]

let sub a n = Array.sub a 0 (min n (Array.length a))

(* --- build ------------------------------------------------------------- *)

(* Round.run_with_keys, decomposed into the public calls it makes so the
   traced run can time each one.  It must stay step-for-step identical to
   [Round.run_with_keys]: the smoke test compares the two outcomes. *)
let traced_construction ctx rng (params : Round.params) assignments interact_us =
  let sp = ctx.spans in
  let overlay = Overlay.create rng ~n:params.Round.peers in
  Array.iteri
    (fun i own -> Array.iter (Node.ensure_key (Overlay.node overlay i)) own)
    assignments;
  let replication_keys = ref 0 in
  Spans.span sp (Spans.name sp "construction.replication") ~op:(-1) (fun () ->
      Array.iteri
        (fun i own ->
          let targets =
            Rng.sample_without_replacement rng
              ~k:(min params.n_min (params.peers - 1))
              ~n:(params.peers - 1)
          in
          Array.iter
            (fun raw ->
              let nj = Overlay.node overlay (if raw >= i then raw + 1 else raw) in
              Array.iter (Node.ensure_key nj) own;
              replication_keys := !replication_keys + Array.length own)
            targets)
        assignments);
  let config =
    {
      Construct.n_min = params.n_min;
      d_max = params.d_max;
      max_fruitless = params.max_fruitless;
      refer_hops = params.refer_hops;
      mode = Construct.Theory;
    }
  in
  let engine = Construct.create ~telemetry:ctx.tel rng config overlay Construct.no_hooks in
  let order = Array.init params.peers Fun.id in
  let rounds = ref 0 in
  let round_span = Spans.name sp "construction.round" in
  let interact_span = Spans.name sp "construction.interact" in
  while Construct.any_active engine && !rounds < params.max_rounds do
    incr rounds;
    ignore (Spans.enter sp round_span);
    Rng.shuffle rng order;
    Array.iter
      (fun i ->
        if Construct.is_active engine i then begin
          let t0 = Spans.enter sp interact_span in
          Construct.interact engine i;
          Samples.push_ns interact_us (Spans.leave sp ~op:i - t0)
        end)
      order;
    ignore (Spans.leave sp ~op:(-1))
  done;
  let reference =
    Spans.span sp (Spans.name sp "reference.compute") ~op:(-1) (fun () ->
        let all = Array.concat (Array.to_list assignments) in
        Array.sort Key.compare all;
        let uniq = ref [] in
        Array.iteri
          (fun i k -> if i = 0 || Key.compare k all.(i - 1) <> 0 then uniq := k :: !uniq)
          all;
        Reference.compute
          ~keys:(Array.of_list (List.rev !uniq))
          ~peers:params.peers ~d_max:params.d_max ~n_min:params.n_min)
  in
  let deviation =
    Spans.span sp (Spans.name sp "deviation.of_overlay") ~op:(-1) (fun () ->
        Deviation.of_overlay ~reference overlay)
  in
  let c = Construct.counters engine in
  {
    Round.overlay;
    reference;
    deviation;
    rounds = !rounds;
    interactions = c.Construct.interactions;
    keys_moved = c.Construct.keys_moved;
    replication_keys = !replication_keys;
    splits = c.Construct.splits;
    follows = c.Construct.follows;
    merges = c.Construct.merges;
    refer_steps = c.Construct.refer_steps;
  }

(* Inputs of one construction: per-peer keys and the audit's searches. *)
type build_input = { assignments : Key.t array array; from : int array; keys : Key.t array }

(* Audit of a constructed overlay by uncached lookups (step for step
   [Overlay.search], the paper's search): each sampled key must route from
   a random peer to a responsible one, and be stored at some online peer
   responsible for it.  Construction syncs neither replicas nor
   prefix-related partitions, so the terminal itself may lack a key
   (about 0.1% of searches at 10k peers); the index has lost it only if no
   responsible peer holds it.  These lookups are the benchmark's pure
   routing load: a cache change must not move their latency.  Returns
   hops and failures. *)
let audit_build ctx overlay input latency_us =
  let sp = ctx.spans in
  (* Search on a settled heap, not in the middle of collecting what the
     construction left behind. *)
  Spans.span sp (Spans.name sp "gc.full_major") ~op:(-1) Gc.full_major;
  let indexed = Hashtbl.create (16 * Overlay.size overlay) in
  Overlay.iter overlay (fun n ->
      if n.Node.online then
        Hashtbl.iter
          (fun k _ -> if Node.responsible_for n k then Hashtbl.replace indexed k ())
          n.Node.store);
  let lookup = Spans.name sp "query.lookup" in
  let hops = ref 0 and failed = ref 0 in
  Array.iteri
    (fun i k ->
      let t0 = Spans.enter sp lookup in
      let r = Engine.lookup overlay ~from:input.from.(i) k in
      Samples.push_ns latency_us (Spans.leave sp ~op:i - t0);
      hops := !hops + r.Engine.hops;
      if not (audit_lookup overlay k r ~must_find:false && Hashtbl.mem indexed k) then
        incr failed)
    input.keys;
  (!hops, !failed)

let build =
  let prepare ctx sz =
    let sp = ctx.spans in
    let params = Round.default_params ~peers:sz.build_peers in
    let peers = params.Round.peers in
    (* Construction [b] draws its keys from [seed + 3b], runs on
       [seed + 3b + 1] and samples its audit from [seed + 3b + 2]. *)
    let inputs =
      Spans.span sp (Spans.name sp "setup.trace") ~op:(-1) (fun () ->
          Array.init sz.builds (fun b ->
              let seed = ctx.seed + (3 * b) in
              let assignments =
                Distribution.assign_to_peers (Rng.create ~seed) Distribution.Uniform ~peers
                  ~keys_per_peer:params.Round.keys_per_peer
              in
              let arng = Rng.create ~seed:(seed + 2) in
              let from = Array.init sz.audit_lookups (fun _ -> Rng.int arng peers) in
              let keys =
                Array.init sz.audit_lookups (fun _ ->
                    let own = assignments.(Rng.int arng peers) in
                    own.(Rng.int arng (Array.length own)))
              in
              { assignments; from; keys }))
    in
    fun () ->
      let sp = ctx.spans in
      (* One untimed construction first (on seed + 3 builds + 1): the first
         construction in a process runs about a fifth slower while the heap
         grows to its working size. *)
      Spans.span sp (Spans.name sp "construction.warmup") ~op:(-1) (fun () ->
          let rng = Rng.create ~seed:(ctx.seed + (3 * sz.builds) + 1) in
          ignore (Round.run_with_keys rng params ~assignments:inputs.(0).assignments);
          Gc.full_major ());
      let latency_us = Samples.create (sz.builds * sz.audit_lookups) in
      let interact_us = Samples.create 1024 in
      let rates = Array.make sz.builds 0. in
      let hops = ref 0 and failed = ref 0 in
      let deviation = ref 0. and load = ref 0. in
      let outcomes = ref [] and forward_ns = ref 0. in
      let w0 = Spans.now_ns () in
      Array.iteri
        (fun b input ->
          let rng = Rng.create ~seed:(ctx.seed + (3 * b) + 1) in
          let t0 = Spans.now_ns () in
          let o =
            if Spans.on sp then traced_construction ctx rng params input.assignments interact_us
            else Round.run_with_keys rng params ~assignments:input.assignments
          in
          rates.(b) <- float_of_int peers /. (float_of_int (Spans.now_ns () - t0) /. 1e9);
          let h, f = audit_build ctx o.Round.overlay input latency_us in
          hops := !hops + h;
          failed := !failed + f;
          deviation := !deviation +. o.Round.deviation;
          load := !load +. load_p99_ratio o.Round.overlay ~d_max:params.Round.d_max;
          if Spans.on sp then begin
            let ns, _ = direct_forward ctx o.Round.overlay input.from input.keys in
            forward_ns := !forward_ns +. ns;
            outcomes := o :: !outcomes
          end)
        inputs;
      let wall_ns = Spans.now_ns () - w0 in
      let k = float_of_int sz.builds in
      let searches = sz.builds * sz.audit_lookups in
      let hops_mean = ratio !hops searches in
      let layer =
        if not (Spans.on sp) then []
        else begin
          let sum f = List.fold_left (fun acc o -> acc + f o) 0 !outcomes in
          let interactions = sum (fun o -> o.Round.interactions) in
          let per_build s = float_of_int (Spans.total_ns sp s) /. 1e9 /. k in
          [
            ("construction.interact_us", Samples.mean interact_us);
            ("construction.interact_p99_us", Samples.percentile interact_us 0.99);
            ("construction.interactions_per_peer", ratio interactions (sz.builds * peers));
            ( "construction.useful_ratio",
              ratio (sum (fun o -> o.Round.splits + o.Round.follows + o.Round.merges)) interactions );
            ( "construction.refer_steps_per_interaction",
              ratio (sum (fun o -> o.Round.refer_steps)) interactions );
            ("construction.keys_moved_per_peer", ratio (sum (fun o -> o.Round.keys_moved)) (sz.builds * peers));
            ("construction.replication_s", per_build "construction.replication");
            ("construction.rounds", float_of_int (sum (fun o -> o.Round.rounds)) /. k);
            ("reference.compute_s", per_build "reference.compute");
            ("deviation.of_overlay_s", per_build "deviation.of_overlay");
            ("overlay.forward_ns", !forward_ns /. k);
            ("query.lookup_us", Spans.mean_ns sp "query.lookup" /. 1e3);
            ("query.hops_per_lookup", hops_mean);
            ( "query.ns_per_hop",
              float_of_int (Spans.total_ns sp "query.lookup") /. float_of_int (max 1 !hops) );
          ]
        end
      in
      {
        ops = sz.builds * peers;
        rates;
        wall_ns;
        latency_us;
        latency_chunks = Rates.chunks;
        hops_mean;
        deviation = !deviation /. k;
        load_p99_ratio = !load /. k;
        attempted = (sz.builds * peers) + searches;
        failed = !failed;
        layer;
      }
  in
  { name = "build"; prepare }

(* --- the shared overlay -------------------------------------------------- *)

type world = {
  overlay : Overlay.t;
  deviation : float;
  d_max : int;
  universe : Key.t array;  (** every stored key, shuffled by seed+1 *)
}

(* Round.run at [peers], one global anti-entropy, then the responsibility
   closure over the key universe (copied from the queries experiment):
   every responsible node gets each key and the union of its payloads,
   so whether a lookup finds a key never depends on which valid terminal
   its walk reached. *)
let world ctx ~peers =
  let sp = ctx.spans in
  let params = Round.default_params ~peers in
  let built =
    Spans.span sp (Spans.name sp "setup.build") ~op:(-1) (fun () ->
        let built =
          Round.run (Rng.create ~seed:ctx.seed) params ~spec:Distribution.Uniform
        in
        ignore (Overlay.anti_entropy built.Round.overlay);
        built)
  in
  let overlay = built.Round.overlay in
  let universe =
    Spans.span sp (Spans.name sp "setup.closure") ~op:(-1) (fun () ->
        let tbl = Hashtbl.create 1024 in
        let canonical = Hashtbl.create 1024 in
        Overlay.iter overlay (fun n ->
            Hashtbl.iter
              (fun k payloads ->
                Hashtbl.replace tbl k ();
                let existing = Option.value ~default:[] (Hashtbl.find_opt canonical k) in
                let missing = List.filter (fun p -> not (List.mem p existing)) payloads in
                Hashtbl.replace canonical k (missing @ existing))
              n.Node.store);
        let keys =
          Hashtbl.fold (fun k () acc -> k :: acc) tbl []
          |> List.sort Key.compare |> Array.of_list
        in
        (* First index whose key is >= [target]. *)
        let lower_bound target =
          let lo = ref 0 and hi = ref (Array.length keys) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if Key.to_int keys.(mid) < target then lo := mid + 1 else hi := mid
          done;
          !lo
        in
        Overlay.iter overlay (fun n ->
            let lo, hi = Path.interval_keys n.Node.path in
            for j = lower_bound lo to lower_bound hi - 1 do
              let k = keys.(j) in
              Node.ensure_key n k;
              List.iter
                (fun p -> ignore (Node.insert_new n k p))
                (Option.value ~default:[] (Hashtbl.find_opt canonical k))
            done);
        keys)
  in
  (* Decorrelate popularity rank from key-space position. *)
  Rng.shuffle (Rng.create ~seed:(ctx.seed + 1)) universe;
  { overlay; deviation = built.Round.deviation; d_max = params.Round.d_max; universe }

let zipf_sampler w = Sample.Zipf.create ~n:(Array.length w.universe) ~s:1.1

(* --- lookup-zipf ---------------------------------------------------------- *)

let qcache_layer cache ~lookups ~writes =
  let s = Qcache.stats cache in
  let probes = s.Qcache.route_hits + s.Qcache.result_hits + s.Qcache.misses + s.Qcache.stale in
  [
    ("qcache.probes_per_lookup", ratio probes lookups);
    ("qcache.hit_ratio", Qcache.hit_ratio s);
    ("qcache.evictions", float_of_int s.Qcache.evictions);
    ("qcache.entries", float_of_int (s.Qcache.route_entries + s.Qcache.result_entries));
    ("qcache.stale_per_1k_lookups", 1000. *. ratio s.Qcache.stale lookups);
    ("qcache.invalidations_per_write", ratio s.Qcache.invalidations writes);
  ]

(* The cache is emptied at the start of each of this many equal parts of
   the run, each [Rates.chunks / cache_episodes] chunks long.  A 512/512
   cache per peer over 5k peers is still filling after millions of
   lookups, so with one cache for the whole run each chunk would be faster
   than the last and a quartile over them would rest on one or two;
   emptied, the parts are alike, and every run's chunks spread the same
   way. *)
let cache_episodes = 4

let lookup_zipf =
  let prepare ctx sz =
    let w = world ctx ~peers:sz.peers in
    let peers = Overlay.size w.overlay in
    let origins, keys =
      Spans.span ctx.spans (Spans.name ctx.spans "setup.trace") ~op:(-1) (fun () ->
          let rng = Rng.create ~seed:(ctx.seed + 2) in
          let z = zipf_sampler w in
          let origins = Array.make sz.lookups 0 and keys = Array.make sz.lookups Key.zero in
          for i = 0 to sz.lookups - 1 do
            origins.(i) <- Rng.int rng peers;
            keys.(i) <- w.universe.(Sample.Zipf.draw z rng - 1)
          done;
          (origins, keys))
    in
    fun () ->
      let sp = ctx.spans in
      let overlay = w.overlay in
      let cache = Qcache.create ~route_cap:512 ~result_cap:512 overlay in
      let n = Array.length keys in
      let per = max 1 (n / cache_episodes) in
      let latency_us = Samples.create n in
      let nm = Spans.name sp "query.lookup" in
      let rates = Rates.create ~total:n in
      let busy = ref 0 and hops = ref 0 and failed = ref 0 in
      let w0 = Spans.now_ns () in
      for i = 0 to n - 1 do
        if i > 0 && i mod per = 0 then Qcache.clear cache;
        let k = keys.(i) in
        let t0 = Spans.enter sp nm in
        let r = Engine.lookup ~cache overlay ~from:origins.(i) k in
        let dt = Spans.leave sp ~op:i - t0 in
        busy := !busy + dt;
        Rates.add rates ~ops:1 ~ns:dt;
        Rates.tick rates;
        Samples.push_ns latency_us dt;
        hops := !hops + r.Engine.hops;
        if not (audit_lookup overlay k r ~must_find:true) then incr failed
      done;
      let wall_ns = Spans.now_ns () - w0 in
      let hops_mean = ratio !hops n in
      let load_p99_ratio = load_p99_ratio overlay ~d_max:w.d_max in
      let layer =
        if not (Spans.on sp) then []
        else begin
          let origins = sub origins sz.direct_pairs and keys = sub keys sz.direct_pairs in
          let forward_ns, targets = direct_forward ctx overlay origins keys in
          [
            ("overlay.forward_ns", forward_ns);
            ("query.lookup_us", Samples.mean latency_us);
            ("query.hops_per_lookup", hops_mean);
            ("query.ns_per_hop", float_of_int !busy /. float_of_int (max 1 !hops));
          ]
          @ qcache_layer cache ~lookups:n ~writes:0
          @ direct_qcache ctx cache origins keys targets
        end
      in
      {
        ops = n;
        rates = Rates.rates rates;
        wall_ns;
        latency_us;
        latency_chunks = Rates.chunks;
        hops_mean;
        deviation = w.deviation;
        load_p99_ratio;
        attempted = n;
        failed = !failed;
        layer;
      }
  in
  { name = "lookup-zipf"; prepare }

(* --- write-mix ----------------------------------------------------------- *)

type op = Lookup of int * Key.t | Insert of int * Key.t | Delete of int * Key.t

let write_mix =
  let prepare ctx sz =
    let w = world ctx ~peers:sz.peers in
    let peers = Overlay.size w.overlay in
    let ops, sync_peers =
      Spans.span ctx.spans (Spans.name ctx.spans "setup.trace") ~op:(-1) (fun () ->
          let rng = Rng.create ~seed:(ctx.seed + 2) in
          let z = zipf_sampler w in
          let pareto = Distribution.sampler (Distribution.Pareto 1.5) rng in
          let original = Hashtbl.create (Array.length w.universe) in
          Array.iter (fun k -> Hashtbl.replace original k ()) w.universe;
          (* Keys this run inserted and has not deleted yet: deletes only
             ever remove these, never an original key. *)
          let live = ref [||] and live_n = ref 0 in
          let push k =
            if !live_n = Array.length !live then
              live := Array.append !live (Array.make (max 16 !live_n) Key.zero);
            !live.(!live_n) <- k;
            incr live_n
          in
          let ops =
            Array.init sz.mix_ops (fun _ ->
                let from = Rng.int rng peers in
                let u = Rng.float rng in
                if u < 0.80 || (u >= 0.95 && !live_n = 0) then
                  Lookup (from, w.universe.(Sample.Zipf.draw z rng - 1))
                else if u < 0.95 then begin
                  let k = pareto () in
                  if not (Hashtbl.mem original k) then push k;
                  Insert (from, k)
                end
                else begin
                  let j = Rng.int rng !live_n in
                  let k = !live.(j) in
                  decr live_n;
                  !live.(j) <- !live.(!live_n);
                  Delete (from, k)
                end)
          in
          let syncs = sz.mix_ops / sz.sync_every in
          (ops, Array.init syncs (fun _ -> Rng.int rng peers)))
    in
    fun () ->
      let sp = ctx.spans in
      let overlay = w.overlay in
      let cache = Qcache.create ~route_cap:512 ~result_cap:512 overlay in
      let brng = Rng.create ~seed:(ctx.seed + 3) in
      let bcfg = Balance.default_config ~d_max:w.d_max ~n_min:1 in
      let n = Array.length ops in
      let latency_us = Samples.create n in
      let s_lookup = Spans.name sp "query.lookup"
      and s_insert = Spans.name sp "overlay.insert"
      and s_delete = Spans.name sp "overlay.delete"
      and s_balance = Spans.name sp "balance.pass"
      and s_sync = Spans.name sp "reconcile.sync" in
      let rates = Rates.create ~total:n in
      let hops = ref 0 and lookups = ref 0 and writes = ref 0 in
      let failed = ref 0 in
      (* Maintenance time counts toward the chunk it runs in. *)
      let timed dt = Rates.add rates ~ops:0 ~ns:dt in
      let splits = ref 0 and retracts = ref 0 and migrated = ref 0 in
      let syncs = ref 0 and copied = ref 0 and tombstoned = ref 0 in
      let w0 = Spans.now_ns () in
      for i = 0 to n - 1 do
        let dt =
          match ops.(i) with
          | Lookup (from, k) ->
            let t0 = Spans.enter sp s_lookup in
            let r = Engine.lookup ~cache overlay ~from k in
            let dt = Spans.leave sp ~op:i - t0 in
            incr lookups;
            hops := !hops + r.Engine.hops;
            if not (audit_lookup overlay k r ~must_find:false) then incr failed;
            dt
          | Insert (from, k) ->
            let t0 = Spans.enter sp s_insert in
            let r = Overlay.insert overlay ~from k "perf" in
            let dt = Spans.leave sp ~op:i - t0 in
            incr writes;
            if r = None then incr failed;
            dt
          | Delete (from, k) ->
            let t0 = Spans.enter sp s_delete in
            let r = Overlay.delete overlay ~from k in
            let dt = Spans.leave sp ~op:i - t0 in
            incr writes;
            if r = None then incr failed;
            dt
        in
        timed dt;
        Rates.add rates ~ops:1 ~ns:0;
        Samples.push_ns latency_us dt;
        if (i + 1) mod sz.balance_every = 0 then begin
          let t0 = Spans.enter sp s_balance in
          let r = Balance.pass brng overlay bcfg in
          timed (Spans.leave sp ~op:i - t0);
          splits := !splits + r.Balance.splits;
          retracts := !retracts + r.Balance.retracts;
          migrated := !migrated + r.Balance.migrated_keys
        end;
        if (i + 1) mod sz.sync_every = 0 then begin
          let a = sync_peers.(((i + 1) / sz.sync_every) - 1) in
          match Node.replica_list (Overlay.node overlay a) with
          | [] -> ()
          | b :: _ ->
            let t0 = Spans.enter sp s_sync in
            let r = Reconcile.sync_pair overlay ~a ~b ~budget:200 in
            timed (Spans.leave sp ~op:i - t0);
            incr syncs;
            copied := !copied + r.Reconcile.copied;
            tombstoned := !tombstoned + r.Reconcile.tombstoned
        end;
        Rates.tick rates
      done;
      let wall_ns = Spans.now_ns () - w0 in
      let hops_mean = ratio !hops !lookups in
      let load_p99_ratio = load_p99_ratio overlay ~d_max:w.d_max in
      let layer =
        if not (Spans.on sp) then []
        else begin
          let pairs = ref [] in
          Array.iter
            (function Lookup (f, k) -> pairs := (f, k) :: !pairs | Insert _ | Delete _ -> ())
            (sub ops sz.direct_pairs);
          let pairs = Array.of_list (List.rev !pairs) in
          let origins = Array.map fst pairs and keys = Array.map snd pairs in
          let forward_ns, targets = direct_forward ctx overlay origins keys in
          let mean s = Spans.mean_ns sp s in
          [
            ("overlay.forward_ns", forward_ns);
            ("query.lookup_us", mean "query.lookup" /. 1e3);
            ("query.hops_per_lookup", hops_mean);
            ( "query.ns_per_hop",
              float_of_int (Spans.total_ns sp "query.lookup") /. float_of_int (max 1 !hops) );
            ("overlay.insert_us", mean "overlay.insert" /. 1e3);
            ("overlay.delete_us", mean "overlay.delete" /. 1e3);
            ("balance.pass_ms", mean "balance.pass" /. 1e6);
            ("balance.splits", float_of_int !splits);
            ("balance.retracts", float_of_int !retracts);
            ("balance.migrated_keys", float_of_int !migrated);
            ("reconcile.sync_us", mean "reconcile.sync" /. 1e3);
            ("reconcile.copied_per_sync", ratio !copied !syncs);
            ("reconcile.tombstoned_per_sync", ratio !tombstoned !syncs);
          ]
          @ qcache_layer cache ~lookups:!lookups ~writes:!writes
          @ direct_qcache ctx cache origins keys targets
        end
      in
      {
        ops = n;
        rates = Rates.rates rates;
        wall_ns;
        latency_us;
        latency_chunks = Rates.chunks;
        hops_mean;
        deviation = w.deviation;
        load_p99_ratio;
        attempted = n;
        failed = !failed;
        layer;
      }
  in
  { name = "write-mix"; prepare }

(* --- simnet-storm -------------------------------------------------------- *)

(* Bare relay over [Net]: [events] deliveries among [nodes] nodes with the
   storm's latency model, [concurrency] messages in flight; ns per event. *)
let relay_event_ns ctx ~nodes ~events ~concurrency =
  let sp = ctx.spans in
  let sim = Sim.create () in
  let net : unit Net.t =
    Net.create sim (Rng.create ~seed:(ctx.seed + 5)) ~nodes ~latency:Latency.planetlab
      ~loss:0. ~bucket:60.
  in
  let rng = Rng.create ~seed:(ctx.seed + 6) in
  let left = ref events in
  Net.set_handler net (fun me () ->
      if !left > 0 then begin
        decr left;
        Net.send net ~src:me ~dst:(Rng.int rng nodes) ~bytes:200 ~kind:Net.Query ()
      end);
  for i = 1 to concurrency do
    Net.send net ~src:(i mod nodes) ~dst:(Rng.int rng nodes) ~bytes:200 ~kind:Net.Query ()
  done;
  let t0 = Spans.enter sp (Spans.name sp "simnet.relay") in
  Sim.run sim;
  let t1 = Spans.leave sp ~op:(-1) in
  float_of_int (t1 - t0) /. float_of_int (max 1 (Sim.processed sim))

let storm =
  let prepare ctx sz =
    let w = world ctx ~peers:sz.peers in
    let peers = Overlay.size w.overlay in
    let times, origins, keys =
      Spans.span ctx.spans (Spans.name ctx.spans "setup.trace") ~op:(-1) (fun () ->
          let rng = Rng.create ~seed:(ctx.seed + 2) in
          let z = zipf_sampler w in
          let acc = ref [] and t = ref (Sample.exponential rng ~rate:sz.storm_rate) in
          while !t < sz.storm_horizon do
            let origin = Rng.int rng peers in
            acc := (!t, origin, w.universe.(Sample.Zipf.draw z rng - 1)) :: !acc;
            t := !t +. Sample.exponential rng ~rate:sz.storm_rate
          done;
          let a = Array.of_list (List.rev !acc) in
          ( Array.map (fun (t, _, _) -> t) a,
            Array.map (fun (_, o, _) -> o) a,
            Array.map (fun (_, _, k) -> k) a ))
    in
    fun () ->
      let sp = ctx.spans in
      let n = Array.length times in
      let sim = Sim.create () in
      let net : Storm.wire Net.t =
        Net.create sim (Rng.create ~seed:(ctx.seed + 4)) ~nodes:peers
          ~latency:Latency.planetlab ~loss:0.02 ~bucket:60.
      in
      (* Five retries instead of two: with 2% loss a hop at a level with a
         single reference fails with probability ~6e-5 after three
         attempts, which fails a few lookups per run; after six it is
         ~4e-9, so every lookup completes. *)
      let storm =
        Storm.create ~telemetry:ctx.tel sim (Rng.create ~seed:(ctx.seed + 3)) w.overlay net
          { Storm.default_config with max_retries = 5 }
      in
      (* Each arrival schedules the next at its pregenerated time, so the
         heap holds one pending arrival, as a live client would. *)
      let next = ref 0 in
      let s_issue = Spans.name sp "storm.issue" in
      let rec arrive () =
        let i = !next in
        incr next;
        ignore (Spans.enter sp s_issue);
        Storm.issue storm ~origin:origins.(i) ~key:keys.(i);
        ignore (Spans.leave sp ~op:i);
        if !next < n then Sim.schedule_at sim ~time:times.(!next) arrive
      in
      if n > 0 then Sim.schedule_at sim ~time:times.(0) arrive;
      (* The simulation advances in [Rates.chunks] equal windows of
         simulated time, then drains the lookups still in flight; a
         window's rate is the lookups completed in it per wall second. *)
      let s_run = Spans.name sp "sim.run" in
      let rates = Array.make Rates.chunks 0. in
      let busy = ref 0 and completed = ref 0 in
      let advance run =
        let t0 = Spans.enter sp s_run in
        run ();
        let dt = Spans.leave sp ~op:(-1) - t0 in
        busy := !busy + dt;
        let s = (Storm.stats storm).Storm.succeeded in
        let r = float_of_int (s - !completed) /. (float_of_int dt /. 1e9) in
        completed := s;
        r
      in
      Array.iteri
        (fun c _ ->
          let until = sz.storm_horizon *. float_of_int (c + 1) /. float_of_int Rates.chunks in
          rates.(c) <- advance (fun () -> Sim.run_until sim ~time:until))
        rates;
      ignore (advance (fun () -> Sim.run sim));
      let busy_ns = !busy in
      let st = Storm.stats storm in
      (* Latency runs from the scheduled arrival, which is also when the
         lookup is issued: in simulated time the generator is never late. *)
      let latency_us = Samples.create n in
      List.iter
        (fun c ->
          if c.Storm.success then
            Samples.push latency_us ((c.Storm.finished_at -. c.Storm.issued_at) *. 1e6))
        (Storm.completions storm);
      let consistent =
        st.Storm.issued = n
        && st.Storm.issued = st.Storm.succeeded + st.Storm.failed
        && Storm.in_flight storm = 0
      in
      let events = Sim.processed sim in
      let layer =
        if not (Spans.on sp) then []
        else begin
          let count kind = Telemetry.count_of_tag ctx.tel (Event.tag kind) in
          let hop = count (Event.Query_hop { qid = 0; src = 0; dst = 0 }) in
          [
            ("query.hops_per_lookup", ratio hop n);
            ("sim.events_per_s", float_of_int events /. (float_of_int busy_ns /. 1e9));
            ("sim.events_per_lookup", ratio events n);
            ( "simnet.relay_event_ns",
              relay_event_ns ctx ~nodes:peers ~events ~concurrency:(max 1 (n / 100)) );
            ("net.messages_per_lookup", ratio (Net.messages_sent net) n);
            ("net.drop_ratio", ratio (Net.messages_dropped net) (Net.messages_sent net));
            ("storm.event_ns", float_of_int busy_ns /. float_of_int (max 1 events));
            ("storm.timeouts_per_lookup", ratio st.Storm.timeouts n);
            ("storm.retries_per_lookup", ratio st.Storm.retries n);
          ]
        end
      in
      {
        ops = st.Storm.succeeded;
        rates;
        wall_ns = busy_ns;
        latency_us;
        (* simulated, so the same on every run of a seed: one slice *)
        latency_chunks = 1;
        hops_mean = ratio (Net.messages_sent net) n;
        deviation = w.deviation;
        load_p99_ratio = load_p99_ratio w.overlay ~d_max:w.d_max;
        attempted = n;
        failed = st.Storm.failed + (if consistent then 0 else 1);
        layer;
      }
  in
  { name = "simnet-storm"; prepare }

let all =
  [
    build;
    lookup_zipf;
    write_mix;
    storm;
  ]

let find name = List.find_opt (fun w -> w.name = name) all
