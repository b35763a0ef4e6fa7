(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 4 and EXPERIMENTS.md).

   Usage:
     dune exec bench/main.exe                    -- everything, in order
     dune exec bench/main.exe fig4               -- one artifact
     dune exec bench/main.exe fig6a 10           -- override repetitions
     dune exec bench/main.exe fig6a fig6e micro  -- several artifacts
     dune exec bench/main.exe micro              -- Bechamel micro-benchmarks

   --json FILE writes a machine-readable report (wall-clock seconds per
   target, fig6 metric values, Bechamel ns/run for the micro kernels)
   for `bench/compare.exe` to diff against a baseline.
   --quota MS shortens the Bechamel per-kernel time quota (default 500).
   --trace FILE.jsonl and --metrics (anywhere on the command line) route
   every experiment's telemetry to a JSONL file / a summary table. *)

module Figures = Pgrid_experiment.Figures
module Series = Pgrid_stats.Series
module Table = Pgrid_stats.Table

let seed = 20050830 (* VLDB 2005, Trondheim: August 30 *)
let report : Report.t option ref = ref None
let micro_quota_ms = ref 500.
let survival_horizon = ref 7200.
let balance_horizon = ref 3600.
let txn_horizon = ref 3600.
let overload_horizon = ref 1440.
let overload_peers = ref 10_000
let partition_horizon = ref 14400.
let partition_peers = ref 1024
let queries_peers = ref 10_000
let queries_count = ref 1_000_000
let queries_smoke_only = ref false

(* The smoke configuration is fixed (never flag-tunable): CI diffs its
   deterministic metrics byte-for-byte against the committed baseline,
   so the config must match what generated QUERIES_0001.json. *)
let queries_smoke_config = (2000, 100_000)

let banner title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n%!" line title line

let note text = Printf.printf "note: %s\n%!" text

let print_table (columns, rows) ~title = Table.print ~title ~columns ~rows

let fig3 _reps =
  banner "Figure 3 -- alpha''(p)";
  note "paper: grows extremely fast for very small p (error-prone regime)";
  Series.print (Figures.fig3 ())

let fig4 reps =
  banner "Figure 4 -- deviation of p0 from n*p (one bisection, n=1000, s=10)";
  note "paper: SAM/AEP systematically high; COR and AUT near zero";
  Series.print (Figures.fig4 ?reps ~seed ())

let fig5 reps =
  banner "Figure 5 -- total interactions (one bisection, n=1000, s=10)";
  note "paper: AEP family below AUT over most of the range; cost rises as p falls";
  Series.print (Figures.fig5 ?reps ~seed ())

let print_fig6 f =
  print_endline (Figures.fig6_table f);
  print_newline ()

let fig6a reps =
  banner "Figure 6(a) -- load-balance deviation vs population";
  note "paper: stable across sizes; skew order U < P0.5 < P1.0 < P1.5 <= N, A";
  print_fig6 (Figures.fig6a ?reps ~seed ())

let fig6b reps =
  banner "Figure 6(b) -- deviation vs required replication n_min";
  note "paper: stable for mild skew, degrades for strong skew at large n_min";
  print_fig6 (Figures.fig6b ?reps ~seed ())

let fig6c reps =
  banner "Figure 6(c) -- deviation vs data sample size d_max";
  note "paper: no systematic influence of the sample size";
  print_fig6 (Figures.fig6c ?reps ~seed ())

let fig6d reps =
  banner "Figure 6(d) -- theoretical vs heuristic decision probabilities";
  note "paper: heuristics degrade load balance substantially";
  print_fig6 (Figures.fig6d ?reps ~seed ())

let fig6e reps =
  banner "Figure 6(e) -- construction interactions per peer";
  note "paper: 2-12 per peer, growing gracefully with network size";
  print_fig6 (Figures.fig6e ?reps ~seed ())

let fig6f reps =
  banner "Figure 6(f) -- data keys moved per peer";
  note "paper: grows gracefully with size; skew increases bandwidth";
  print_fig6 (Figures.fig6f ?reps ~seed ())

let fig7 _reps =
  banner "Figure 7 -- participating peers over time (simulated PlanetLab)";
  note "paper: ramp to ~300 during joins, plateau, dip under churn";
  Series.print (Figures.fig7 ~seed ())

let fig8 _reps =
  banner "Figure 8 -- aggregate bandwidth per peer";
  note "paper shape: construction peak, fast decay; query traffic afterwards";
  Series.print (Figures.fig8 ~seed ())

let fig9 _reps =
  banner "Figure 9 -- query latency over time";
  note "paper: flat during static phase; mean and deviation rise under churn";
  Series.print (Figures.fig9 ~seed ())

let table1 _reps =
  banner "Table 1 -- in-text statistics of Section 5.2";
  print_table (Figures.table1 ~seed ()) ~title:"paper vs measured"

let resilience _reps =
  banner "Resilience -- construction and queries under injected faults";
  note "bursty loss + partition + crash-restart, scaled by severity; \
        severity 0 = hardened fault-free baseline";
  note "expected: deviation within 2x baseline and success >= 80% at severity 0.5";
  let columns, rows = Figures.resilience_table (Figures.resilience ~seed ()) in
  Table.print ~title:"fault-severity sweep" ~columns ~rows

(* 30 samples across the horizon, but never denser than one per minute. *)
let survival_sample_every () = Float.max 60. (!survival_horizon /. 30.)

(* 20 samples across the horizon, but never denser than one per minute. *)
let balance_sample_every () = Float.max 60. (!balance_horizon /. 20.)

let balance _reps =
  banner "Balance -- Pareto-1.5 insert storm, online balancing on vs off";
  note "a U-built overlay takes a skewed storm; runtime splits follow the load";
  note
    (Printf.sprintf
       "expected: balanced max load <= %.1f x d_max while the unbalanced arm \
        exceeds it, query success no worse"
       Figures.balance_slack);
  let b =
    Figures.balance ~horizon:!balance_horizon
      ~sample_every:(balance_sample_every ()) ~seed ()
  in
  let columns, rows = Figures.balance_table b in
  Table.print ~title:"partition load and query success over time" ~columns ~rows;
  let columns, rows = Figures.balance_summary b in
  Table.print ~title:"balance summary" ~columns ~rows

let survival _reps =
  banner "Survival -- hours of churn + permanent kills, daemon on vs off";
  note "paper churn (60-300 s offline every 300-600 s) plus a 30% permanent-kill wave";
  note "expected: the daemon keeps query success >= 95% and loses no keys; \
        the daemon-off arm bleeds data";
  let s =
    Figures.survival ~horizon:!survival_horizon
      ~sample_every:(survival_sample_every ()) ~seed ()
  in
  let columns, rows = Figures.survival_table s in
  Table.print ~title:"health and query success over time" ~columns ~rows;
  let columns, rows = Figures.survival_summary s in
  Table.print ~title:"endurance summary" ~columns ~rows

let txn _reps =
  banner "Txn -- atomic document indexing under crash-during-commit faults";
  note "2PC over the simulated network with durable per-peer intent logs; \
        a Poisson crash process scaled by severity interrupts commits";
  note "expected: zero torn index states, zero lost committed documents and \
        zero abort residue at every severity; commit rate degrades gracefully";
  let t = Figures.txn ~horizon:!txn_horizon ~seed () in
  let columns, rows = Figures.txn_table t in
  Table.print ~title:"crash-severity sweep" ~columns ~rows

let overload _reps =
  banner "Overload -- Zipf-1.1 query storm, protection on vs off";
  note
    "offered load ramps past the hot partitions' aggregate service \
     capacity and back; every peer drains a bounded queue at a fixed rate";
  note
    "expected: the protected arm (shedding + breakers + hedging) regains \
     >= 90% of pre-ramp goodput after the ramp; the unprotected arm stays \
     depressed (metastable collapse)";
  let o =
    Figures.overload ~peers:!overload_peers ~horizon:!overload_horizon ~seed ()
  in
  let columns, rows = Figures.overload_table o in
  Table.print ~title:"offered load, goodput, sheds and backlog over time" ~columns
    ~rows;
  let columns, rows = Figures.overload_summary o in
  Table.print ~title:"overload summary" ~columns ~rows

let queries _reps =
  banner "Queries -- Zipf-1.1 lookup storm, route/result caches on vs off";
  note
    "both arms replay the identical pregenerated trace over the same \
     overlay; validation on use means a stale cache entry costs a \
     fallback hop, never a wrong responsible peer";
  note
    "expected: the cached arm cuts mean hops and raises queries/s; wrong \
     responsible and store mismatches stay 0 under the live balance storm";
  let run tag ~peers ~count =
    let q = Figures.queries ~peers ~count ~seed () in
    let columns, rows = Figures.queries_summary q in
    Table.print
      ~title:(Printf.sprintf "%s (%d peers, %d queries): cache on vs off" tag peers count)
      ~columns ~rows;
    let columns, rows = Figures.queries_storm_summary q in
    Table.print ~title:(tag ^ ": storm audit and shared-walk batching") ~columns ~rows
  in
  let sp, sc = queries_smoke_config in
  run "smoke" ~peers:sp ~count:sc;
  if not !queries_smoke_only then
    run "full" ~peers:!queries_peers ~count:!queries_count

(* 60 samples across the horizon, but never denser than one per minute. *)
let partition_sample_every () = Float.max 60. (!partition_horizon /. 60.)

let partition _reps =
  banner "Partition -- split-brain window, reconciliation on vs off";
  note
    "the network halves for the middle half of the run while skewed inserts, \
     routed deletes and load balancing keep running on both sides";
  note
    "expected: the reconciling arm reaches 0 resurrected / diverged / lost \
     within the bound after heal; the baseline arm keeps resurrected deletes";
  let x =
    Figures.partition ~peers:!partition_peers ~horizon:!partition_horizon
      ~sample_every:(partition_sample_every ()) ~seed ()
  in
  let columns, rows = Figures.partition_table x in
  Table.print ~title:"split-brain violations over time" ~columns ~rows;
  let columns, rows = Figures.partition_summary x in
  Table.print ~title:"partition summary" ~columns ~rows

let ablation_seq _reps =
  banner "Ablation X1 -- sequential joins vs parallel construction (Sec 4.3)";
  note "paper claim: messages comparable; latency O(n log n) vs O(log^2 n)";
  print_table (Figures.ablation_sequential ~seed ()) ~title:"sequential vs parallel"

let ablation_cost reps =
  banner "Ablation X2 -- interaction cost constants (Sec 3)";
  note "paper: eager = ln 2 per peer, AUT = 2 ln 2 per peer at p = 1/2";
  print_table (Figures.ablation_cost ?reps ~seed ()) ~title:"cost per peer"

let ablation_cor reps =
  banner "Ablation X3 -- sampling-bias corrections";
  note "Taylor Eqs. 9-10 overshoot where alpha'' varies; calibration holds";
  print_table (Figures.ablation_correction ?reps ~seed ()) ~title:"mean deviation of p0"

let ablation_pht _reps =
  banner "Ablation X4 -- range queries: order-preserving overlay vs PHT-over-DHT";
  note "paper Sec 6: hashing needs an extra index and pays O(log n) per trie node";
  print_table (Figures.ablation_pht ~seed ()) ~title:"message costs per range query"

let ablation_merge _reps =
  banner "Ablation X5 -- merging independently created indices";
  note "the same interaction protocol fuses two overlays without a rebuild";
  print_table (Figures.ablation_merge ~seed ()) ~title:"merge vs fresh build"

let ablation_maintain _reps =
  banner "Ablation X6 -- maintenance: leaves, repair, re-joins, rebalancing";
  note "the sequential maintenance model operating on a constructed overlay";
  print_table (Figures.ablation_maintenance ~seed ()) ~title:"maintenance timeline"

let scale _reps =
  banner "Scale -- construction and event-loop throughput vs population";
  note "fig6-style construction (Uniform, default params) at growing sizes";
  note "plus a Net relay storm; peers/s and events/s are the headline numbers";
  Scale.print ~seed

(* --- Bechamel micro-benchmarks of the hot kernels ---------------------- *)

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
      Hashtbl.iter
        (fun k payloads ->
          Node.ensure_key dst k;
          List.iter (Node.insert dst k) payloads)
        src.Node.store;
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
  let sim_burst () =
    let s = Pgrid_simnet.Sim.create () in
    for i = 1 to 1000 do
      Pgrid_simnet.Sim.schedule s ~delay:(float_of_int i) (fun () -> ())
    done;
    Pgrid_simnet.Sim.run s
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
        Test.make ~name:"sim-1000-events" (Staged.stage sim_burst);
        Test.make ~name:"rng-int-64" (Staged.stage rng_ints);
        Test.make ~name:"rng-shuffle-64"
          (Staged.stage (fun () -> Pgrid_prng.Rng.shuffle rng draws));
        Test.make ~name:"intset-union" (Staged.stage unions);
        Test.make ~name:"codec-of-term"
          (* A single ~80ns call is dominated by call overhead and GC
             pacing from unrelated fixtures; a batch over varied term
             lengths keeps the estimate about the codec itself. *)
          (Staged.stage (fun () ->
               Array.iter
                 (fun t -> ignore (Pgrid_keyspace.Codec.of_term t))
                 codec_terms));
        (* Last, so its fixtures are not in the heap while the others run. *)
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
    ~rows:(List.sort compare !rows)

let targets =
  [
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("fig6c", fig6c);
    ("fig6d", fig6d);
    ("fig6e", fig6e);
    ("fig6f", fig6f);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("table1", table1);
    ("resilience", resilience);
    ("ablation-seq", ablation_seq);
    ("ablation-cost", ablation_cost);
    ("ablation-cor", ablation_cor);
    ("ablation-pht", ablation_pht);
    ("ablation-merge", ablation_merge);
    ("ablation-maintain", ablation_maintain);
    ("survival", survival);
    ("balance", balance);
    ("txn", txn);
    ("overload", overload);
    ("queries", queries);
    ("partition", partition);
    ("scale", scale);
    ("micro", micro);
  ]

(* Machine-readable metric values for the report: the fig6 grids flatten
   to one named value per (category, distribution) cell.  The figure
   functions cache their construction runs, so re-asking for the grid
   after the target printed it costs nothing. *)
let fig6_values f =
  List.concat
    (List.mapi
       (fun i cat ->
         List.map2
           (fun dist v -> (cat ^ "/" ^ dist, v))
           f.Figures.distributions
           (Array.to_list f.Figures.values.(i)))
       f.Figures.categories)

(* The resilience sweep flattens to one named value per (severity,
   metric) cell, so CI and compare.exe can watch the robustness numbers
   drift.  The sweep is memoized, so re-asking after the target printed
   it costs nothing. *)
let resilience_values () =
  List.concat_map
    (fun (r : Figures.resilience_row) ->
      let v name value = (Printf.sprintf "s%.1f/%s" r.Figures.severity name, value) in
      [
        v "deviation" r.Figures.deviation;
        v "success_pct" r.Figures.success_pct;
        v "mean_latency" r.Figures.mean_latency;
        v "issued" (float_of_int r.Figures.issued);
        v "timeouts" (float_of_int r.Figures.timeouts);
        v "retries" (float_of_int r.Figures.retries);
        v "give_ups" (float_of_int r.Figures.give_ups);
        v "evictions" (float_of_int r.Figures.evictions);
        v "crashes" (float_of_int r.Figures.crashes);
      ])
    (Figures.resilience ~seed ())

(* The survival run flattens to aggregates per arm, the full per-sample
   series (score / success / lost at each sample time), and the score
   dominance fractions the acceptance gate watches.  The run is
   memoized, so re-asking after the target printed it costs nothing. *)
let survival_values () =
  let open Figures in
  let s =
    Figures.survival ~horizon:!survival_horizon
      ~sample_every:(survival_sample_every ()) ~seed ()
  in
  let arm tag (o : survival_run option) =
    match o with
    | None -> []
    | Some r ->
      [
        (tag ^ "/min_success_pct", r.min_success_pct);
        (tag ^ "/mean_score", r.mean_score);
        (tag ^ "/final_lost", float_of_int r.final_lost);
        (tag ^ "/kills", float_of_int r.kills);
        (tag ^ "/rereplications", float_of_int r.rereplications);
        (tag ^ "/exchanges", float_of_int r.exchanges);
        (tag ^ "/keys_synced", float_of_int r.keys_synced);
        (tag ^ "/inserted", float_of_int r.inserted);
        (tag ^ "/insert_failures", float_of_int r.insert_failures);
      ]
      @ List.concat_map
          (fun (p : survival_point) ->
            let at name v = (Printf.sprintf "%s/%s@%.0f" tag name p.t, v) in
            [
              at "score" p.score;
              at "success_pct" p.success_pct;
              at "lost" (float_of_int p.lost);
            ])
          r.points
  in
  let dominance =
    match (s.on, s.off) with
    | Some on, Some off when List.length on.points = List.length off.points ->
      let n = max 1 (List.length on.points) in
      let ge, gt =
        List.fold_left2
          (fun (ge, gt) (a : Figures.survival_point) (b : Figures.survival_point) ->
            ( (if a.score >= b.score then ge + 1 else ge),
              if a.score > b.score then gt + 1 else gt ))
          (0, 0) on.points off.points
      in
      [
        ("dominance/ge_frac", float_of_int ge /. float_of_int n);
        ("dominance/gt_frac", float_of_int gt /. float_of_int n);
      ]
    | _ -> []
  in
  arm "on" s.on @ arm "off" s.off @ dominance

(* The balance run flattens to per-arm aggregates, the per-sample load /
   success series, and the slack bound the acceptance gate divides
   against.  Memoized like the other experiments. *)
let balance_values () =
  let open Figures in
  let b =
    Figures.balance ~horizon:!balance_horizon
      ~sample_every:(balance_sample_every ()) ~seed ()
  in
  let arm tag (o : balance_run option) =
    match o with
    | None -> []
    | Some r ->
      [
        (tag ^ "/final_max_load", float_of_int r.final_max_load);
        (tag ^ "/peak_max_load", float_of_int r.peak_max_load);
        (tag ^ "/final_partitions", float_of_int r.final_partitions);
        (tag ^ "/min_success_pct", r.min_success_pct);
        (tag ^ "/mean_score", r.mean_score);
        (tag ^ "/splits", float_of_int r.splits);
        (tag ^ "/retracts", float_of_int r.retracts);
        (tag ^ "/keys_moved", float_of_int r.keys_moved);
        (tag ^ "/inserted", float_of_int r.inserted);
        (tag ^ "/insert_failures", float_of_int r.insert_failures);
      ]
      @ List.concat_map
          (fun (p : balance_point) ->
            let at name v = (Printf.sprintf "%s/%s@%.0f" tag name p.t, v) in
            [
              at "max_load" (float_of_int p.max_load);
              at "score" p.score;
              at "success_pct" p.success_pct;
            ])
          r.points
  in
  (("bound/max_load", Figures.balance_slack *. float_of_int b.d_max)
   :: arm "on" b.on)
  @ arm "off" b.off

(* The overload storm flattens to per-arm aggregates plus the
   per-window goodput / shed / backlog series, every metric carrying its
   explicit improvement direction.  The cross-arm [protection/*] values
   are what the CI gate reads: the protected arm's recovery and the gap
   it opens over the unprotected arm.  Memoized like the other
   experiments. *)
let overload_values () =
  let open Figures in
  let o =
    Figures.overload ~peers:!overload_peers ~horizon:!overload_horizon ~seed ()
  in
  let arm tag (r : overload_run option) =
    match r with
    | None -> []
    | Some r ->
      let v name value dir = (tag ^ "/" ^ name, value, dir) in
      let vi name value dir = v name (float_of_int value) dir in
      let s = r.storm_stats in
      [
        v "pre_goodput" r.pre_goodput Report.Up;
        v "post_goodput" r.post_goodput Report.Up;
        v "recovery_ratio" r.recovery_ratio Report.Up;
        v "recovered" (if r.recovered then 1. else 0.) Report.Up;
        v "time_to_recover" r.time_to_recover Report.Down;
        v "p50_completion" r.p50_completion Report.Down;
        v "p99_completion" r.p99_completion Report.Down;
        v "shed_ratio" r.shed_ratio Report.Down;
        vi "messages_sent" r.messages_sent Report.Down;
        vi "messages_dropped" r.messages_dropped Report.Down;
        vi "issued" s.Pgrid_query.Storm.issued Report.Up;
        vi "succeeded" s.Pgrid_query.Storm.succeeded Report.Up;
        vi "failed" s.Pgrid_query.Storm.failed Report.Down;
        vi "timeouts" s.Pgrid_query.Storm.timeouts Report.Down;
        vi "retries" s.Pgrid_query.Storm.retries Report.Down;
        vi "give_ups" s.Pgrid_query.Storm.give_ups Report.Down;
        vi "hedges" s.Pgrid_query.Storm.hedges Report.Down;
        vi "hedge_wins" s.Pgrid_query.Storm.hedge_wins Report.Up;
        vi "breaker_opens" s.Pgrid_query.Storm.breaker_opens Report.Down;
        vi "breaker_skips" s.Pgrid_query.Storm.breaker_skips Report.Down;
        vi "sheds" s.Pgrid_query.Storm.sheds Report.Down;
        vi "sheds_query" s.Pgrid_query.Storm.sheds_query Report.Down;
        vi "sheds_maintenance" s.Pgrid_query.Storm.sheds_maintenance Report.Down;
        vi "queue_peak" s.Pgrid_query.Storm.queue_peak Report.Down;
      ]
      @ List.concat_map
          (fun (p : overload_point) ->
            let at name value dir =
              (Printf.sprintf "%s/%s@%.0f" tag name p.t, value, dir)
            in
            [
              at "goodput" p.goodput Report.Up;
              at "shed" (float_of_int p.shed) Report.Down;
              at "backlog" (float_of_int p.backlog) Report.Down;
            ])
          r.points
  in
  let protection =
    match (o.on, o.off) with
    | Some on, Some off ->
      [
        ( "protection/recovery_gain",
          on.recovery_ratio -. off.recovery_ratio,
          Report.Up );
        ( "protection/p99_gain",
          off.p99_completion -. on.p99_completion,
          Report.Up );
      ]
    | _ -> []
  in
  arm "on" o.on @ arm "off" o.off @ protection

(* The query-storm bundle flattens to per-arm volume / hop-percentile /
   throughput values, the cross-arm speedup and hop reduction the
   acceptance gate watches, the stale-correctness audit and the
   shared-walk batching economics — once per configuration ([smoke/] is
   the fixed CI config, [full/] the flag-tunable one).  [qps], [speedup]
   and wall seconds are machine-dependent; everything else is
   seed-deterministic, which is what lets CI compare [smoke/] exactly.
   Memoized like the other experiments. *)
let queries_values () =
  let open Figures in
  let config tag ~peers ~count =
    let q = Figures.queries ~peers ~count ~seed () in
    let v name value dir = (tag ^ "/" ^ name, value, dir) in
    let vi name value dir = v name (float_of_int value) dir in
    let arm atag (a : queries_arm) =
      let av name value dir = v (atag ^ "/" ^ name) value dir in
      let avi name value dir = av name (float_of_int value) dir in
      [
        avi "issued" a.issued Report.Up;
        avi "routed" a.routed Report.Up;
        avi "found" a.found Report.Up;
        av "mean_hops" a.mean_hops Report.Down;
        avi "p50_hops" a.p50_hops Report.Down;
        avi "p99_hops" a.p99_hops Report.Down;
        avi "max_hops" a.peak_hops Report.Down;
        av "qps" a.qps Report.Up;
      ]
      @ (if a.cached then
           [
             av "hit_ratio" a.hit_ratio Report.Up;
             avi "result_hits" a.result_hits Report.Up;
             avi "route_hits" a.route_hits Report.Up;
             avi "stale_probes" a.stale_probes Report.Down;
           ]
         else [])
    in
    let s = q.storm and b = q.batch in
    arm "on" q.on @ arm "off" q.off
    @ [
        v "speedup" (q.on.qps /. q.off.qps) Report.Up;
        v "hop_reduction" (1. -. (q.on.mean_hops /. q.off.mean_hops)) Report.Up;
        vi "storm/queries" s.storm_queries Report.Up;
        vi "storm/routed" s.storm_routed Report.Up;
        vi "storm/wrong_responsible" s.wrong_responsible Report.Down;
        vi "storm/mismatch" s.storm_mismatch Report.Down;
        vi "storm/stale" s.storm_stale Report.Up;
        vi "storm/splits" s.storm_splits Report.Up;
        vi "storm/invalidations" s.storm_invalidations Report.Up;
        v "storm/hit_ratio" s.storm_hit_ratio Report.Up;
        vi "batch/groups" b.batch_groups Report.Up;
        vi "batch/keys" b.batch_keys Report.Up;
        vi "batch/messages" b.batch_messages Report.Down;
        vi "batch/naive_messages" b.batch_naive Report.Down;
        vi "batch/unresolved" b.batch_unresolved Report.Down;
        v "batch/saving_frac"
          (if b.batch_naive = 0 then 0.
           else 1. -. (float_of_int b.batch_messages /. float_of_int b.batch_naive))
          Report.Up;
      ]
  in
  let sp, sc = queries_smoke_config in
  config "smoke" ~peers:sp ~count:sc
  @
  if !queries_smoke_only then []
  else config "full" ~peers:!queries_peers ~count:!queries_count

(* The transaction sweep flattens to one named value per (severity,
   metric) cell, every metric carrying its explicit improvement
   direction — the torn/lost/residue audits must trend to zero, the
   commit rate must stay high.  Memoized like the other experiments. *)
let txn_values () =
  let t = Figures.txn ~horizon:!txn_horizon ~seed () in
  List.concat_map
    (fun (p : Figures.txn_point) ->
      let v name value dir =
        (Printf.sprintf "s%.1f/%s" p.Figures.severity name, value, dir)
      in
      let vi name value dir = v name (float_of_int value) dir in
      [
        v "commit_pct" p.Figures.commit_pct Report.Up;
        vi "submitted" p.Figures.submitted Report.Up;
        vi "committed" p.Figures.committed Report.Up;
        vi "aborted" p.Figures.aborted Report.Down;
        vi "pending" p.Figures.still_pending Report.Down;
        vi "torn" p.Figures.torn Report.Down;
        vi "lost_committed" p.Figures.lost_committed Report.Down;
        vi "abort_residue" p.Figures.abort_residue Report.Down;
        vi "recovered" p.Figures.recovered Report.Up;
        vi "redelivered" p.Figures.redelivered Report.Down;
        vi "undos" p.Figures.undos Report.Down;
        vi "timeouts" p.Figures.timeouts Report.Down;
        vi "retries" p.Figures.txn_retries Report.Down;
        vi "crashes" p.Figures.crashes Report.Down;
        vi "intents_left" p.Figures.intents_left Report.Down;
      ])
    t.Figures.points

(* The split-brain run flattens to per-arm aggregates plus the
   per-sample violation series, every metric carrying its explicit
   improvement direction.  The CI gate reads the [on/*] convergence and
   end-state audits and checks the [off/*] arm still demonstrates the
   failure the subsystem exists to fix.  Memoized like the other
   experiments. *)
let partition_values () =
  let open Figures in
  let x =
    Figures.partition ~peers:!partition_peers ~horizon:!partition_horizon
      ~sample_every:(partition_sample_every ()) ~seed ()
  in
  let arm tag (r : partition_run option) =
    match r with
    | None -> []
    | Some r ->
      let v name value dir = (tag ^ "/" ^ name, value, dir) in
      let vi name value dir = v name (float_of_int value) dir in
      [
        v "converged" (match r.converged_at with Some _ -> 1. | None -> 0.) Report.Up;
        v "converge_seconds"
          (match r.converged_at with Some s -> s | None -> x.horizon)
          Report.Down;
        vi "final_resurrected" r.final_resurrected Report.Down;
        vi "final_diverged" r.final_diverged Report.Down;
        vi "final_lost" r.final_lost Report.Down;
        vi "peak_resurrected" r.peak_resurrected Report.Down;
        vi "peak_diverged" r.peak_diverged Report.Down;
        vi "inserted" r.inserted Report.Up;
        vi "deleted" r.deleted Report.Up;
        vi "insert_failures" r.insert_failures Report.Down;
        vi "delete_failures" r.delete_failures Report.Down;
        vi "syncs" r.syncs Report.Up;
        vi "repairs" r.repairs Report.Up;
        vi "tombstones_purged" r.tombstones_purged Report.Up;
        vi "splits" r.splits Report.Up;
      ]
      @ List.concat_map
          (fun (p : partition_point) ->
            let at name value dir =
              (Printf.sprintf "%s/%s@%.0f" tag name p.t, value, dir)
            in
            [
              at "resurrected" (float_of_int p.resurrected) Report.Down;
              at "diverged" (float_of_int p.diverged) Report.Down;
              at "lost" (float_of_int p.lost) Report.Down;
              at "tombstones" (float_of_int p.tombstones) Report.Down;
              at "score" p.score Report.Up;
            ])
          r.points
  in
  (("bound/converge_seconds", x.bound, Report.Down) :: arm "on" x.on)
  @ arm "off" x.off

let values_of name reps =
  (* Producers that predate the direction field return bare pairs; tag
     them with the direction compare.exe's heuristic would infer, so the
     explicit field never flips an established metric's polarity. *)
  let auto = List.map (fun (n, v) -> (n, v, Report.auto_direction n)) in
  match name with
  | "resilience" -> auto (resilience_values ())
  | "survival" -> auto (survival_values ())
  | "balance" -> auto (balance_values ())
  | "txn" -> txn_values ()
  | "overload" -> overload_values ()
  | "queries" -> queries_values ()
  | "partition" -> partition_values ()
  | "scale" -> Scale.values ~seed
  | "fig6a" -> auto (fig6_values (Figures.fig6a ?reps ~seed ()))
  | "fig6b" -> auto (fig6_values (Figures.fig6b ?reps ~seed ()))
  | "fig6c" -> auto (fig6_values (Figures.fig6c ?reps ~seed ()))
  | "fig6d" -> auto (fig6_values (Figures.fig6d ?reps ~seed ()))
  | "fig6e" -> auto (fig6_values (Figures.fig6e ?reps ~seed ()))
  | "fig6f" -> auto (fig6_values (Figures.fig6f ?reps ~seed ()))
  | _ -> []

let run_target (name, f) reps =
  let t0 = Unix.gettimeofday () in
  f reps;
  let seconds = Unix.gettimeofday () -. t0 in
  Option.iter
    (fun rep ->
      Report.add_wall rep { Report.name; reps; seconds; values = values_of name reps })
    !report

(* Pull --trace FILE / --metrics / --json FILE / --quota MS out of argv
   before positional parsing. *)
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
    | "--quota" :: ms :: rest ->
      (match float_of_string_opt ms with
      | Some q when q > 0. -> micro_quota_ms := q
      | _ -> usage_error "--quota expects a positive duration in milliseconds, got %S" ms);
      go acc rest
    | "--horizon" :: sec :: rest ->
      (match float_of_string_opt sec with
      | Some h when h > 0. ->
        survival_horizon := h;
        balance_horizon := h;
        txn_horizon := h;
        overload_horizon := h;
        partition_horizon := h
      | _ -> usage_error "--horizon expects a positive duration in seconds, got %S" sec);
      go acc rest
    | "--overload-peers" :: n :: rest ->
      (match int_of_string_opt n with
      | Some p when p >= 64 -> overload_peers := p
      | _ -> usage_error "--overload-peers expects a peer count >= 64, got %S" n);
      go acc rest
    | "--partition-peers" :: n :: rest ->
      (match int_of_string_opt n with
      | Some p when p >= 64 -> partition_peers := p
      | _ -> usage_error "--partition-peers expects a peer count >= 64, got %S" n);
      go acc rest
    | "--queries-peers" :: n :: rest ->
      (match int_of_string_opt n with
      | Some p when p >= 8 -> queries_peers := p
      | _ -> usage_error "--queries-peers expects a peer count >= 8, got %S" n);
      go acc rest
    | "--queries-count" :: n :: rest ->
      (match int_of_string_opt n with
      | Some c when c >= 1 -> queries_count := c
      | _ -> usage_error "--queries-count expects a query count >= 1, got %S" n);
      go acc rest
    | "--queries-smoke" :: rest ->
      queries_smoke_only := true;
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
    | ("--trace" | "--json" | "--quota" | "--horizon" | "--overload-peers"
      | "--partition-peers" | "--scale-peers" | "--queries-peers"
      | "--queries-count")
      :: [] ->
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
        f ();
        if metrics then Pgrid_telemetry.Summary.print tel;
        Option.iter
          (fun path ->
            Printf.printf "trace: %d events written to %s\n"
              (Telemetry.events_recorded tel) path)
          trace)
  end

let () =
  let flags = split_flags (List.tl (Array.to_list Sys.argv)) in
  let chosen, reps = parse_positional flags.positional in
  Option.iter (fun _ -> report := Some (Report.create ())) flags.json;
  with_telemetry ~trace:flags.trace ~metrics:flags.metrics (fun () ->
      (match chosen with
      | [] ->
        print_endline "P-Grid reproduction bench harness -- all artifacts";
        List.iter (fun t -> run_target t reps) targets
      | names ->
        List.iter
          (fun name -> run_target (name, List.assoc name targets) reps)
          names));
  match (flags.json, !report) with
  | Some path, Some rep -> Report.write rep ~path ~seed
  | _ -> ()
