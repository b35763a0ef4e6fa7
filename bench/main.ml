(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and runs the simulation experiments (see DESIGN.md section
   4 and EXPERIMENTS.md), all read from Pgrid_experiment.Experiment.all,
   plus the bench-only scale and micro targets and the identity manifest.

   Usage:
     dune exec bench/main.exe                    -- everything, in order
     dune exec bench/main.exe fig4               -- one artifact
     dune exec bench/main.exe fig6a 10           -- override repetitions
     dune exec bench/main.exe fig6a fig6e micro  -- several artifacts
     dune exec bench/main.exe micro              -- Bechamel micro-benchmarks
     dune exec bench/main.exe check txn balance  -- smoke runs, claims checked
     dune exec bench/main.exe identity --smoke 1 -- identity manifest lines

   check runs each named experiment at its smoke size, prints every claim
   with its verdict and exits 1 if any claim fails.
   identity prints one line per registry entry and per library run:
   Experiment.digest of its output, then its name, size and seed.  It
   judges each run as check does, prints every failing claim and every
   repeated metric name to stderr, and exits 1 after its last line if
   there was one.  test/identity/ diffs the lines against the committed
   manifests (dune runtest: --smoke at 1 repetition; dune build
   @identity-full: default size and repetitions, with the --json report
   that CI compares against the *_0001.json baselines).
   --smoke runs the simulation experiments at their smoke size.
   --json FILE writes a machine-readable report (wall-clock seconds per
   target or identity run, every metric it reports, Bechamel ns/run for
   the micro kernels) for `bench/compare.exe` to diff against a baseline.
   --quota MS shortens the Bechamel per-kernel time quota (default 500).
   --scale-peers N,N,... sets the scale target's population sizes.
   --trace FILE.jsonl and --metrics (anywhere on the command line) route
   every experiment's telemetry to a JSONL file / a summary table. *)

module Experiment = Pgrid_experiment.Experiment
module Figures = Pgrid_experiment.Figures
module Series = Pgrid_stats.Series
module Table = Pgrid_stats.Table

let seed = 20050830 (* VLDB 2005, Trondheim: August 30 *)
let report : Report.t option ref = ref None
let micro_quota_ms = ref 500.
let smoke = ref false

let banner title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n%!" line title line

let note text = Printf.printf "note: %s\n%!" text

let print_block = function
  | Experiment.Series f -> Series.print f
  | Grid g ->
    print_endline (Figures.fig6_table g);
    print_newline ()
  | Table { title; columns; rows } -> Table.print ~title ~columns ~rows

let of_values values = { Experiment.blocks = []; metrics = values }

(* A registry entry: its banner, notes and tables; returns its output. *)
let experiment (e : Experiment.t) reps =
  banner e.title;
  List.iter note e.notes;
  let out = e.run ~reps ~smoke:!smoke ~seed in
  List.iter print_block out.blocks;
  out

let scale _reps =
  banner "Scale -- construction and event-loop throughput vs population";
  note "fig6-style construction (Uniform, default params) at growing sizes";
  note "plus a Net relay storm; peers/s and events/s are the headline numbers";
  Scale.print ~seed;
  of_values (Scale.values ~seed)

(* --- Bechamel micro-benchmarks of the hot kernels ---------------------- *)

(* Routing storage after the paper's construction (uniform keys, default
   parameters) at 1k and 6k peers: reference ids and levels per peer,
   and the words ([Obj.reachable_words]) of the routing arena and the
   level descriptors, per peer. *)
let routing_storage () =
  let module Round = Pgrid_construction.Round in
  let module Node = Pgrid_core.Node in
  let module Overlay = Pgrid_core.Overlay in
  let rows =
    List.map
      (fun peers ->
        let o =
          (Round.run (Pgrid_prng.Rng.create ~seed) (Round.default_params ~peers)
             ~spec:Pgrid_workload.Distribution.Uniform)
            .Round.overlay
        in
        let ids = ref 0 and levels = ref 0 in
        Overlay.iter o (fun n ->
            let depth = Pgrid_keyspace.Path.length n.Node.path in
            levels := !levels + depth;
            for level = 0 to depth - 1 do
              ids := !ids + Node.refs_count n ~level
            done);
        let words = Node.routing_words (Overlay.node o 0).Node.census in
        let per x = float_of_int x /. float_of_int peers in
        (peers, per !ids, per !levels, per words))
      [ 1_000; 6_000 ]
  in
  Table.print ~title:"routing storage per peer"
    ~columns:[ "peers"; "ids"; "levels"; "words" ]
    ~rows:
      (List.map
         (fun (peers, ids, levels, words) ->
           string_of_int peers
           :: List.map (Table.fmt_float ~decimals:1) [ ids; levels; words ])
         rows);
  List.map
    (fun (peers, _, _, words) ->
      (Printf.sprintf "routing_words_per_peer/n=%d" peers, words, Experiment.Down))
    rows

let micro _reps =
  banner "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let rng = Pgrid_prng.Rng.create ~seed in
  let keys =
    Pgrid_workload.Distribution.generate rng Pgrid_workload.Distribution.Uniform
      ~n:2560
  in
  let overlay =
    Pgrid_core.Builder.index rng ~peers:256 ~keys ~d_max:50 ~n_min:5
      ~refs_per_level:2
  in
  let probe_key = keys.(0) in
  let codec_terms =
    [|
      "a"; "term"; "Benchmark"; "distributed"; "overlay-network";
      "capture-recapture-estimation"; "p-grid"; "Indexing";
      "data-oriented"; "zebra"; "Quorum"; "xylophone"; "m"; "range";
      "prefix-routing"; "anti-entropy";
    |]
  in
  (* PRNG and set layers.  The bounds mix the shapes the simnet draws:
     reference counts, peer ids, the 2^30 and max_int extremes. *)
  let shapes = [| 2; 3; 7; 40; 80; 296; 1 lsl 30; max_int |] in
  let bounds = Array.init 64 (fun i -> shapes.(i land 7)) in
  let draws = Array.init 64 Fun.id in
  let rng_ints () =
    for i = 0 to 63 do
      ignore (Sys.opaque_identity (Pgrid_prng.Rng.int rng bounds.(i)))
    done
  in
  (* One union into an emptied set, one adding fresh members (in-place
     back merge), one of a subset (count only): the three paths of
     construction's reference and replica exchanges. *)
  let evens = Pgrid_core.Intset.of_list (List.init 40 (fun i -> 2 * i)) in
  let odds = Pgrid_core.Intset.of_list (List.init 40 (fun i -> (2 * i) + 1)) in
  let union_target = Pgrid_core.Intset.create () in
  let unions () =
    Pgrid_core.Intset.clear union_target;
    Pgrid_core.Intset.union_into ~into:union_target evens;
    Pgrid_core.Intset.union_into ~into:union_target odds;
    Pgrid_core.Intset.union_into ~into:union_target evens
  in
  (* One [Balance.pass] over 2000 peers, the write path's balancing step:
     an index built for [d_max] 50, then 300 inserts into 1% of the key
     space push a few partitions past it.  Building the index takes about
     a second, so it is built once and each run gets a copy.  Bechamel
     gives every run of a sample the same resource, so the resource is a
     shared queue: [allocate] (untimed) adds one fresh copy per run and
     each run takes one. *)
  let balance_cfg = Pgrid_core.Balance.default_config ~d_max:50 ~n_min:1 in
  let balance_template =
    lazy
      (let brng = Pgrid_prng.Rng.create ~seed in
       let keys =
         Pgrid_workload.Distribution.generate brng Pgrid_workload.Distribution.Uniform
           ~n:20_000
       in
       let o =
         Pgrid_core.Builder.index brng ~peers:2000 ~keys ~d_max:50 ~n_min:2
           ~refs_per_level:2
       in
       for i = 0 to 299 do
         let k = Pgrid_keyspace.Key.of_float (0.25 +. (0.01 *. Pgrid_prng.Rng.float brng)) in
         ignore (Pgrid_core.Overlay.insert o ~from:(i mod 2000) k "hot")
       done;
       o)
  in
  let balance_fixtures = Queue.create () in
  let balance_fixture () =
    let module Node = Pgrid_core.Node in
    let module Overlay = Pgrid_core.Overlay in
    let t = Lazy.force balance_template in
    let o = Overlay.create (Pgrid_prng.Rng.create ~seed) ~n:(Overlay.size t) in
    for i = 0 to Overlay.size t - 1 do
      let src = Overlay.node t i and dst = Overlay.node o i in
      Node.set_path dst src.Node.path;
      ignore (Node.merge_store dst ~from:src);
      Node.absorb_replicas dst src.Node.replicas;
      for level = 0 to Pgrid_keyspace.Path.length src.Node.path - 1 do
        Node.union_refs dst ~level ~from:src
      done
    done;
    Queue.push (o, Pgrid_prng.Rng.create ~seed) balance_fixtures;
    balance_fixtures
  in
  let balance_pass fixtures =
    let overlay, brng = Queue.pop fixtures in
    Pgrid_core.Balance.pass brng overlay balance_cfg
  in
  (* One refresh of the partition index, warm: a 5000-peer overlay whose
     index is current takes 100 routed writes, then one [Overlay.census]
     brings the index up to date from the peers they changed.  The
     writes insert a pool of 100 keys on one run and delete them on the
     next, so every run changes key counts while the stores keep their
     size.  Building the overlay takes a few seconds, outside the timed
     runs.  balance-pass, whose fixture is a fresh copy, measures the
     cold refresh, where every peer has changed. *)
  let census_overlay =
    lazy
      (let crng = Pgrid_prng.Rng.create ~seed in
       let keys =
         Pgrid_workload.Distribution.generate crng Pgrid_workload.Distribution.Uniform
           ~n:50_000
       in
       let o =
         Pgrid_core.Builder.index crng ~peers:5000 ~keys ~d_max:50 ~n_min:2
           ~refs_per_level:2
       in
       ignore (Pgrid_core.Overlay.census o);
       o)
  in
  let census_pool =
    let crng = Pgrid_prng.Rng.create ~seed:(seed + 1) in
    Array.init 100 (fun _ -> Pgrid_keyspace.Key.of_float (Pgrid_prng.Rng.float crng))
  in
  let census_pool_in = ref false in
  let census_refresh o =
    let module Overlay = Pgrid_core.Overlay in
    Array.iteri
      (fun i k ->
        let from = i * 50 in
        if !census_pool_in then ignore (Overlay.delete o ~from k)
        else ignore (Overlay.insert o ~from k "hot"))
      census_pool;
    census_pool_in := not !census_pool_in;
    ignore (Sys.opaque_identity (Overlay.census o))
  in
  (* The two whole-overlay audits on the paper's construction of 1000
     peers (uniform keys, default parameters) with every tenth peer then
     taken offline: [Health.check] (replication, referential integrity,
     one pass over the stores) and [Overlay.integrity_errors] (every
     reference of every online peer).  Both ask, per routing level with
     no usable reference, whether the complement is inhabited. *)
  let audit_overlay =
    lazy
      (let module Round = Pgrid_construction.Round in
       let built =
         Round.run (Pgrid_prng.Rng.create ~seed) (Round.default_params ~peers:1000)
           ~spec:Pgrid_workload.Distribution.Uniform
       in
       let o = built.Round.overlay in
       for i = 0 to 99 do
         Pgrid_core.Node.set_online (Pgrid_core.Overlay.node o (10 * i)) false
       done;
       o)
  in
  (* One uncached [Overlay.search] on the paper's construction of 1000
     peers (uniform keys, default parameters), every peer online: about
     four hops over tables of some 220 references per peer, too large
     for the cache that holds the 256-peer overlay above.  Each run takes
     the next of 4096 (origin, key) pairs. *)
  let search_1k =
    lazy
      (let module Round = Pgrid_construction.Round in
       let built =
         Round.run (Pgrid_prng.Rng.create ~seed) (Round.default_params ~peers:1000)
           ~spec:Pgrid_workload.Distribution.Uniform
       in
       let srng = Pgrid_prng.Rng.create ~seed:(seed + 2) in
       let origins = Array.init 4096 (fun _ -> Pgrid_prng.Rng.int srng 1000) in
       let targets =
         Array.init 4096 (fun _ -> Pgrid_keyspace.Key.of_float (Pgrid_prng.Rng.float srng))
       in
       (built.Round.overlay, origins, targets, ref 0))
  in
  let search_1k_run (o, origins, targets, next) =
    let i = !next land 4095 in
    next := !next + 1;
    ignore (Sys.opaque_identity (Pgrid_core.Overlay.search o ~from:origins.(i) targets.(i)))
  in
  (* One routing step at a level of 40 references, the mean of the
     benchmark's overlays: peer 0 on path 0 refers to peers 1-40 on path
     1.  With every peer online the pick reads no reference; with peer 40
     offline it scans all 40. *)
  let forward_fixture ~offline =
    let module Node = Pgrid_core.Node in
    let module Overlay = Pgrid_core.Overlay in
    let o = Overlay.create (Pgrid_prng.Rng.create ~seed) ~n:41 in
    let src = Overlay.node o 0 in
    Node.set_path src (Pgrid_keyspace.Path.of_string "0");
    for i = 1 to 40 do
      Node.set_path (Overlay.node o i) (Pgrid_keyspace.Path.of_string "1");
      Node.add_ref src ~level:0 i
    done;
    if offline then Node.set_online (Overlay.node o 40) false;
    let key = Pgrid_keyspace.Key.of_float 0.75 in
    fun () -> ignore (Sys.opaque_identity (Overlay.forward o src key))
  in
  (* A storm hop's first candidate at the same 40-reference level, two
     ways: the level copied and fully shuffled ([Overlay.shuffled_refs],
     the legacy walk's choice), or copied and one candidate drawn
     ([Overlay.draw_candidate], [Storm]'s). *)
  let first_candidate ~shuffle =
    let module Node = Pgrid_core.Node in
    let module Overlay = Pgrid_core.Overlay in
    let o = Overlay.create (Pgrid_prng.Rng.create ~seed) ~n:41 in
    let src = Overlay.node o 0 in
    for i = 1 to 40 do
      Node.add_ref src ~level:0 i
    done;
    let buf = Array.make 40 0 in
    if shuffle then fun () ->
      ignore (Overlay.shuffled_refs rng src ~level:0 buf);
      ignore (Sys.opaque_identity buf.(0))
    else fun () ->
      let len = Node.refs_blit src ~level:0 buf in
      ignore (Sys.opaque_identity (Overlay.draw_candidate rng buf ~drawn:0 ~len))
  in
  let sim_burst () =
    let s = Pgrid_simnet.Sim.create () in
    for i = 1 to 1000 do
      Pgrid_simnet.Sim.schedule s ~delay:(float_of_int i) (fun () -> ())
    done;
    Pgrid_simnet.Sim.run s
  in
  (* Storm's timer pattern: 1000 timers armed into a heap of 4000
     events, 90% cancelled (their hop resolved first), the rest drained
     with the plain events. *)
  let sim_timer_cancel () =
    let module Sim = Pgrid_simnet.Sim in
    let s = Sim.create () in
    for i = 1 to 3000 do
      Sim.schedule s ~delay:(float_of_int (i * 7 mod 3001)) ignore
    done;
    let timers =
      Array.init 1000 (fun i -> Sim.timer s ~delay:(float_of_int (i * 13 mod 1009)) ignore)
    in
    Array.iteri (fun i h -> if i mod 10 <> 0 then Sim.cancel s h) timers;
    Sim.run s
  in
  let tests =
    Test.make_grouped ~name:"pgrid"
      [
        Test.make ~name:"beta_of_p"
          (Staged.stage (fun () -> Pgrid_partition.Aep_math.beta_of_p 0.42));
        Test.make ~name:"alpha_of_p"
          (Staged.stage (fun () -> Pgrid_partition.Aep_math.alpha_of_p 0.12));
        Test.make ~name:"bisection-aep-n500"
          (Staged.stage (fun () ->
               ignore
                 (Pgrid_partition.Discrete.run rng Pgrid_partition.Discrete.Aep
                    ~n:500 ~p:0.3 ~samples:10)));
        Test.make ~name:"overlay-search"
          (Staged.stage (fun () ->
               ignore (Pgrid_core.Overlay.search overlay ~from:0 probe_key)));
        Test.make ~name:"overlay-forward-40"
          (Staged.stage (forward_fixture ~offline:false));
        Test.make ~name:"overlay-forward-40-offline"
          (Staged.stage (forward_fixture ~offline:true));
        Test.make ~name:"first-candidate-40-shuffle"
          (Staged.stage (first_candidate ~shuffle:true));
        Test.make ~name:"first-candidate-40-draw"
          (Staged.stage (first_candidate ~shuffle:false));
        Test.make ~name:"sim-1000-events" (Staged.stage sim_burst);
        Test.make ~name:"sim-timer-cancel" (Staged.stage sim_timer_cancel);
        Test.make ~name:"rng-int-64" (Staged.stage rng_ints);
        Test.make ~name:"rng-shuffle-64"
          (Staged.stage (fun () -> Pgrid_prng.Rng.shuffle rng draws));
        Test.make ~name:"rng-shuffle-ints-64"
          (Staged.stage (fun () -> Pgrid_prng.Rng.shuffle_ints rng draws));
        Test.make ~name:"intset-union" (Staged.stage unions);
        Test.make ~name:"codec-of-term"
          (* A single ~80ns call is dominated by call overhead and GC
             pacing from unrelated fixtures; a batch over varied term
             lengths keeps the estimate about the codec itself. *)
          (Staged.stage (fun () ->
               Array.iter
                 (fun t -> ignore (Pgrid_keyspace.Codec.of_term t))
                 codec_terms));
        (* Last, so their fixtures are not in the heap while the others run. *)
        Test.make_with_resource ~name:"census-refresh" Test.uniq
          ~allocate:(fun () -> Lazy.force census_overlay)
          ~free:ignore (Staged.stage census_refresh);
        Test.make_with_resource ~name:"search-1k" Test.uniq
          ~allocate:(fun () -> Lazy.force search_1k)
          ~free:ignore (Staged.stage search_1k_run);
        Test.make_with_resource ~name:"health-check-1k" Test.uniq
          ~allocate:(fun () -> Lazy.force audit_overlay)
          ~free:ignore
          (Staged.stage (fun o -> ignore (Pgrid_core.Health.check ~n_min:2 o)));
        Test.make_with_resource ~name:"integrity-errors-1k" Test.uniq
          ~allocate:(fun () -> Lazy.force audit_overlay)
          ~free:ignore
          (Staged.stage (fun o -> ignore (Pgrid_core.Overlay.integrity_errors o)));
        Test.make_with_resource ~name:"balance-pass" Test.multiple
          ~allocate:balance_fixture ~free:Queue.clear (Staged.stage balance_pass);
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second (!micro_quota_ms /. 1000.))
      ~kde:None ()
  in
  (* Wall-clock targets run before us can leave a large major heap behind;
     without a compaction the kernel timings become GC-dominated (visible as
     negative OLS r^2).  Compact once so every run starts from a clean heap. *)
  Gc.compact ();
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with Some [ t ] -> Some t | _ -> None
      in
      let r2 = Analyze.OLS.r_square ols in
      Option.iter
        (fun rep ->
          match estimate with
          | Some ns ->
            Report.add_micro rep { Report.kernel = name; ns_per_run = ns; r_square = r2 }
          | None -> ())
        !report;
      let ns =
        match estimate with Some t -> Table.fmt_float ~decimals:1 t | None -> "-"
      in
      let r2s =
        match r2 with Some r -> Table.fmt_float ~decimals:4 r | None -> "-"
      in
      rows := [ name; ns; r2s ] :: !rows)
    results;
  Table.print ~title:"hot kernels" ~columns:[ "benchmark"; "ns/run"; "r^2" ]
    ~rows:(List.sort compare !rows);
  of_values (routing_storage ())

(* --- identity manifest ---------------------------------------------------- *)

(* One manifest line, laid out as md5sum's: [Experiment.digest] of
   everything the artifact reported, then its name, the size it ran at
   and its seed. *)
let manifest_line name size seed out =
  Printf.printf "%s  %s %s seed=%d\n%!" (Experiment.digest out) name size seed

(* A 48-peer simnet run with the maintenance daemon and the transaction
   workload on: the daemon's processes, the legacy query loop and the
   document and recovery loops all run. *)
let net_engine_run ~seed =
  let module Net_engine = Pgrid_construction.Net_engine in
  let module Maintenance = Pgrid_core.Maintenance in
  let base = Net_engine.default_params ~peers:48 in
  let o =
    Net_engine.run (Pgrid_prng.Rng.create ~seed)
      {
        base with
        Net_engine.maint =
          Some
            {
              (Maintenance.default_daemon_config ~n_min:Net_engine.n_min) with
              Maintenance.period = 30.;
            };
        txn = true;
      }
      ~spec:Pgrid_workload.Distribution.Uniform
  in
  let f name v = (name, v, Experiment.Down) in
  let i name v = f name (float_of_int v) in
  let series name pts = List.map (fun (x, y) -> f (Printf.sprintf "%s@%h" name x) y) pts in
  let qs = o.Net_engine.query_stats in
  let m = Option.get o.Net_engine.maint_stats in
  let t = Option.get o.Net_engine.txn_stats in
  of_values
    ([
       f "deviation" o.Net_engine.deviation;
       i "issued" qs.Net_engine.issued;
       i "succeeded" qs.Net_engine.succeeded;
       f "mean_hops" qs.Net_engine.mean_hops;
       f "mean_latency" qs.Net_engine.mean_latency;
       i "messages_sent" o.Net_engine.messages_sent;
       i "messages_dropped" o.Net_engine.messages_dropped;
       i "ticks" m.Maintenance.ticks;
       i "exchanges" m.Maintenance.exchanges;
       i "keys_synced" m.Maintenance.keys_synced;
       i "levels_refreshed" m.Maintenance.levels_refreshed;
       i "refs_evicted" m.Maintenance.refs_evicted;
       i "refs_added" m.Maintenance.refs_added;
       i "monitor_runs" m.Maintenance.monitor_runs;
       i "rereplications" m.Maintenance.rereplications;
       i "recover_passes" m.Maintenance.recover_passes;
       i "intents_resolved" m.Maintenance.intents_resolved;
       i "begun" t.Pgrid_core.Txn.begun;
       i "committed" t.Pgrid_core.Txn.committed;
       i "aborted" t.Pgrid_core.Txn.aborted;
       i "prepares" t.Pgrid_core.Txn.prepares;
       i "recovered" t.Pgrid_core.Txn.recovered;
     ]
    @ series "online" (List.map (fun (x, n) -> (x, float_of_int n)) o.Net_engine.online_series)
    @ series "maintenance_bw" o.Net_engine.maintenance_bw
    @ series "query_bw" o.Net_engine.query_bw
    @ series "latency" (List.map (fun (x, mean, _) -> (x, mean)) o.Net_engine.latency_series))

(* Both arms of a 128-peer overload storm: the storm, shedding, breakers
   and hedging of the overload experiment at a size tier-1 can afford.
   [on/issued@w] is the load the protected arm was offered in window [w]. *)
let overload_arms ~seed =
  let arm protected =
    let issued, metrics =
      Figures.overload_arm ~peers:128 ~horizon:360. ~base_rate:10. ~peak_rate:120. ~protected
        ~seed ()
    in
    let tag = if protected then "on" else "off" in
    List.mapi
      (fun w n -> (Printf.sprintf "%s/issued@%d" tag w, float_of_int n, Experiment.Down))
      issued
    @ metrics
  in
  of_values (arm true @ arm false)

(* Both arms are offered the same storm, window by window, over 24
   windows; only the protected arm sheds and hedges, and its queues stay
   shallower. *)
let overload_arms_claims =
  let open Experiment in
  let claim lhs op rhs = { lhs; op; rhs } in
  let m name = Metric name in
  List.map
    (fun prefix -> claim (Count prefix) Eq (Const 24.))
    [ "on/issued@"; "off/issued@"; "on/goodput@"; "off/goodput@" ]
  @ List.init 24 (fun w ->
        let issued arm = m (Printf.sprintf "%s/issued@%d" arm w) in
        claim (issued "on") Eq (issued "off"))
  @ [
      claim (m "on/issued") Eq (m "off/issued");
      claim (m "on/sheds") Gt (Const 0.);
      claim (m "off/sheds") Eq (Const 0.);
      claim (m "off/queue_peak") Gt (m "on/queue_peak");
      claim (m "on/hedges") Gt (Const 0.);
      claim (m "on/shed_ratio") Ge (Const 0.);
      claim (m "on/shed_ratio") Lt (Const 1.);
    ]

let targets =
  List.map (fun (e : Experiment.t) -> (e.name, experiment e)) Experiment.all
  @ [ ("scale", scale); ("micro", micro) ]

(* Runs one target and files its wall-clock seconds and metrics in the
   report. *)
let run_target (name, f) reps =
  let t0 = Unix.gettimeofday () in
  let out = f reps in
  let seconds = Unix.gettimeofday () -. t0 in
  Option.iter
    (fun rep ->
      Report.add_wall rep { Report.name; reps; seconds; values = out.Experiment.metrics })
    !report;
  out

(* [identity reps]: one manifest line per registry entry, at the smoke
   size under --smoke, then one per library run, each run filed in the
   report and judged.  A failing verdict goes to stderr with the run's
   name; the pass still prints every line, and is true if none failed.
   The smoke manifest leaves out overload, whose smoke size runs longer
   than its full one; the 128-peer arms stand in for it. *)
let identity reps =
  let size =
    (if !smoke then "smoke" else "full") ^ Option.fold ~none:"" ~some:(Printf.sprintf "/%d") reps
  in
  let judged name size seed claims run =
    let out = run_target (name, run) reps in
    manifest_line name size seed out;
    let failed = List.filter (fun (holds, _) -> not holds) (Experiment.judge out.metrics claims) in
    List.iter (fun (_, line) -> Printf.eprintf "%s: FAIL  %s\n%!" name line) failed;
    failed = []
  in
  let registry =
    List.filter_map
      (fun (e : Experiment.t) ->
        if !smoke && e.name = "overload" then None
        else Some (judged e.name size seed e.claims (fun reps -> e.run ~reps ~smoke:!smoke ~seed)))
      Experiment.all
  in
  let net_engine = judged "net-engine" "peers=48" 42 [] (fun _ -> net_engine_run ~seed:42) in
  let arms =
    judged "overload-arms" "peers=128" 6 overload_arms_claims (fun _ -> overload_arms ~seed:6)
  in
  List.for_all Fun.id (net_engine :: arms :: registry)

(* Pull --trace FILE / --metrics / --json FILE / --quota MS / --smoke /
   --scale-peers N,... out of argv before positional parsing. *)
type flags = {
  trace : string option;
  metrics : bool;
  json : string option;
  positional : string list;
}

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n" msg;
      Printf.eprintf "available targets: %s\n" (String.concat ", " (List.map fst targets));
      exit 2)
    fmt

let split_flags argv =
  let rec go acc = function
    | [] -> { acc with positional = List.rev acc.positional }
    | "--trace" :: path :: rest -> go { acc with trace = Some path } rest
    | "--metrics" :: rest -> go { acc with metrics = true } rest
    | "--json" :: path :: rest -> go { acc with json = Some path } rest
    | "--smoke" :: rest ->
      smoke := true;
      go acc rest
    | "--quota" :: ms :: rest ->
      (match float_of_string_opt ms with
      | Some q when q > 0. -> micro_quota_ms := q
      | _ -> usage_error "--quota expects a positive duration in milliseconds, got %S" ms);
      go acc rest
    | "--scale-peers" :: spec :: rest ->
      let sizes =
        List.map
          (fun s ->
            match int_of_string_opt (String.trim s) with
            | Some n when n >= 2 -> n
            | _ ->
              usage_error
                "--scale-peers expects a comma-separated list of sizes >= 2, got %S"
                spec)
          (String.split_on_char ',' spec)
      in
      if sizes = [] then usage_error "--scale-peers expects at least one size";
      Scale.sizes := sizes;
      go acc rest
    | ("--trace" | "--json" | "--quota" | "--scale-peers") :: [] ->
      usage_error "flag is missing its argument"
    | a :: rest -> go { acc with positional = a :: acc.positional } rest
  in
  go { trace = None; metrics = false; json = None; positional = [] } argv

(* Positional arguments: any number of target names plus at most one
   repetitions count.  Anything else is an error — a malformed
   repetitions argument must not silently fall back to the default. *)
let parse_positional args =
  let chosen, reps =
    List.fold_left
      (fun (chosen, reps) a ->
        if List.mem_assoc a targets then (a :: chosen, reps)
        else
          match int_of_string_opt a with
          | Some r when r >= 1 && reps = None -> (chosen, Some r)
          | Some r when r < 1 -> usage_error "repetitions must be >= 1, got %d" r
          | Some _ -> usage_error "more than one repetitions argument"
          | None -> usage_error "unknown target or malformed repetitions argument %S" a)
      ([], None) args
  in
  (List.rev chosen, reps)

(* [check experiments]: each at its smoke size, every claim printed with
   its verdict; true when all hold. *)
let check experiments =
  smoke := true;
  List.fold_left
    (fun ok (e : Experiment.t) ->
      let out = run_target (e.name, experiment e) None in
      let verdicts = Experiment.judge out.metrics e.claims in
      Printf.printf "\nclaims of %s:\n" e.name;
      List.iter
        (fun (holds, line) -> Printf.printf "  %s  %s\n" (if holds then "pass" else "FAIL") line)
        verdicts;
      ok && List.for_all fst verdicts)
    true experiments

let with_telemetry ~trace ~metrics f =
  let module Telemetry = Pgrid_telemetry.Telemetry in
  if trace = None && not metrics then f ()
  else begin
    let tel = Telemetry.create () in
    Option.iter
      (fun path ->
        match Pgrid_telemetry.Sink.jsonl_file path with
        | sink -> Telemetry.add_sink tel sink
        | exception Sys_error reason ->
          Printf.eprintf "bench: cannot open trace file: %s\n" reason;
          exit 1)
      trace;
    Pgrid_telemetry.Global.set tel;
    Fun.protect
      ~finally:(fun () ->
        Telemetry.close tel;
        Pgrid_telemetry.Global.reset ())
      (fun () ->
        let result = f () in
        if metrics then Pgrid_telemetry.Summary.print tel;
        Option.iter
          (fun path ->
            Printf.printf "trace: %d events written to %s\n"
              (Telemetry.events_recorded tel) path)
          trace;
        result)
  end

let () =
  let flags = split_flags (List.tl (Array.to_list Sys.argv)) in
  let job =
    match flags.positional with
    | "check" :: [] -> usage_error "check expects one or more experiment names"
    | "check" :: names ->
      let experiments =
        List.map
          (fun name ->
            try Experiment.find name with Invalid_argument msg -> usage_error "%s" msg)
          names
      in
      fun () -> check experiments
    | "identity" :: args -> (
      match parse_positional args with
      | [], reps -> fun () -> identity reps
      | _ -> usage_error "identity takes no target names, only a repetitions count")
    | args ->
      let chosen, reps = parse_positional args in
      fun () ->
        if chosen = [] then print_endline "P-Grid reproduction bench harness -- all artifacts";
        List.iter
          (fun name -> ignore (run_target (name, List.assoc name targets) reps))
          (if chosen = [] then List.map fst targets else chosen);
        true
  in
  Option.iter (fun _ -> report := Some (Report.create ())) flags.json;
  let ok = with_telemetry ~trace:flags.trace ~metrics:flags.metrics job in
  (match (flags.json, !report) with
  | Some path, Some rep -> Report.write rep ~path ~seed
  | _ -> ());
  if not ok then exit 1
