(* Tests for Pgrid_experiment: every figure generator produces well-formed,
   paper-shaped data (small repetitions for speed). *)

module Figures = Pgrid_experiment.Figures
module Series = Pgrid_stats.Series

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let series_by_name fig name =
  match List.find_opt (fun s -> s.Series.name = name) fig.Series.series with
  | Some s -> s
  | None -> Alcotest.failf "series %s missing" name

let value_at s x =
  let found = ref nan in
  Array.iter (fun (px, py) -> if Float.abs (px -. x) < 1e-9 then found := py) s.Series.points;
  !found

let test_fig3_shape () =
  let fig = Figures.fig3 () in
  let s = series_by_name fig "alpha''" in
  checkb "has points" true (Array.length s.Series.points > 10);
  Array.iter (fun (_, y) -> checkb "positive" true (y > 0.)) s.Series.points

let fig45 = lazy (Figures.fig4 ~n:400 ~reps:8 ~seed:123 (), Figures.fig5 ~n:400 ~reps:8 ~seed:123 ())

let test_fig4_shape () =
  let fig4, _ = Lazy.force fig45 in
  checki "five models" 5 (List.length fig4.Series.series);
  let aep = series_by_name fig4 "AEP" in
  let aut = series_by_name fig4 "AUT" in
  (* AEP biased upward at small p, AUT close to zero. *)
  checkb "AEP bias visible" true (value_at aep 0.1 > 5.);
  checkb "AUT near zero" true (Float.abs (value_at aut 0.1) < 6.)

let test_fig5_shape () =
  let _, fig5 = Lazy.force fig45 in
  let aut = series_by_name fig5 "AUT" in
  let mva = series_by_name fig5 "MVA" in
  (* AUT costs more than the AEP mean-value prediction at p = 1/2, and the
     AEP cost rises as p falls. *)
  checkb "AUT above MVA at 1/2" true (value_at aut 0.5 > value_at mva 0.5);
  checkb "cost rises for small p" true (value_at mva 0.05 > value_at mva 0.5)

let test_fig6_table_rendering () =
  let f =
    {
      Figures.title = "demo";
      categories = [ "n=1"; "n=2" ];
      distributions = [ "U"; "A" ];
      values = [| [| 0.1; 0.2 |]; [| 0.3; 0.4 |] |];
    }
  in
  let s = Figures.fig6_table f in
  checkb "mentions category" true (Test_util.contains s "n=2");
  checkb "mentions value" true (Test_util.contains s "0.400")

let test_planetlab_artifacts () =
  (* One shared small run behind figures 7-9 and table 1. *)
  let fig7 = Figures.fig7 ~peers:48 ~seed:7 () in
  let fig8 = Figures.fig8 ~peers:48 ~seed:7 () in
  let fig9 = Figures.fig9 ~peers:48 ~seed:7 () in
  let columns, rows = Figures.table1 ~peers:48 ~seed:7 () in
  checki "fig7 one series" 1 (List.length fig7.Series.series);
  checki "fig8 two series" 2 (List.length fig8.Series.series);
  checki "fig9 two series" 2 (List.length fig9.Series.series);
  checki "table has three columns" 3 (List.length columns);
  checkb "table has the paper's stats" true (List.length rows >= 6);
  (* Memoization: the three figures came from a single simulation. *)
  let o1 = Figures.planetlab_run ~peers:48 ~seed:7 () in
  let o2 = Figures.planetlab_run ~peers:48 ~seed:7 () in
  checkb "memoized" true (o1 == o2)

module Experiment = Pgrid_experiment.Experiment

let bench_seed = 20050830

(* Smoke runs, shared by every test that reads one experiment. *)
let smoke_runs = Hashtbl.create 8

let smoke name =
  match Hashtbl.find_opt smoke_runs name with
  | Some out -> out
  | None ->
    let out = (Experiment.find name).run ~reps:None ~smoke:true ~seed:bench_seed in
    Hashtbl.add smoke_runs name out;
    out

let value metrics name =
  match List.find_opt (fun (n, _, _) -> n = name) metrics with
  | Some (_, v, _) -> v
  | None -> Alcotest.failf "metric %s missing" name

let samples metrics prefix =
  List.length
    (List.filter (fun (n, _, _) -> String.starts_with ~prefix n) metrics)

let table_shape = function
  | Experiment.Table { columns; rows; _ } -> (List.length columns, List.length rows)
  | _ -> Alcotest.fail "table expected"

let test_survival_smoke () =
  (* Both arms sampled on a shared environment; the daemon arm must
     never lose data the control arm keeps. *)
  let out = smoke "survival" in
  let v = value out.Experiment.metrics in
  checki "31 samples per arm" 31 (samples out.metrics "on/score@");
  checki "same sample count" 31 (samples out.metrics "off/score@");
  checkb "kill waves match across arms" true (v "on/kills" = v "off/kills");
  checkb "daemon arm did maintenance" true (v "on/exchanges" > 0.);
  checkb "control arm did none" true
    (v "off/exchanges" = 0. && v "off/rereplications" = 0.);
  checkb "daemon arm loses nothing the control keeps" true
    (v "on/final_lost" <= v "off/final_lost");
  match out.blocks with
  | [ series; summary ] ->
    (* minutes + (score, success_pct, lost) x (on, off) *)
    checki "series columns" 7 (fst (table_shape series));
    checki "one row per sample" 31 (snd (table_shape series));
    checki "summary columns: metric, on, off, dominance" 4 (fst (table_shape summary))
  | _ -> Alcotest.fail "series and summary tables expected"

(* The two 128-peer arms of a miniature overload storm. *)
let overload_smoke =
  lazy
    (let arm protected =
       Figures.overload_arm ~peers:128 ~horizon:360. ~base_rate:10. ~peak_rate:120.
         ~protected ~seed:6 ()
     in
     (arm true, arm false))

let test_overload_smoke () =
  (* A miniature storm: both arms share the identical offered load; the
     protected arm sheds and the unprotected arm builds backlog. *)
  let (on_issued, on), (off_issued, off) = Lazy.force overload_smoke in
  let metrics = on @ off in
  let v = value metrics in
  checki "24 windows per arm" 24 (samples metrics "on/goodput@");
  checki "same window count" 24 (samples metrics "off/goodput@");
  checki "24 offered-load windows" 24 (List.length on_issued);
  checkb "identical offered load across arms" true (on_issued = off_issued);
  checkb "same storm issued on both arms" true (v "on/issued" = v "off/issued");
  checkb "protected arm sheds" true (v "on/sheds" > 0.);
  checkb "unprotected arm never sheds" true (v "off/sheds" = 0.);
  checkb "unprotected queues run deeper" true (v "off/queue_peak" > v "on/queue_peak");
  checkb "protected arm hedges" true (v "on/hedges" > 0.);
  checkb "shed ratio sane" true (v "on/shed_ratio" >= 0. && v "on/shed_ratio" < 1.);
  (* minutes + (goodput, shed, backlog) x (on, off), one row per window *)
  checkb "series table" true
    (table_shape (Experiment.series ~title:"t" metrics) = (7, 24))

(* The claims CI gates on, at the smoke size CI runs.  A claim that reads
   a metric the experiment does not report fails rather than reading 0. *)
let test_smoke_claims name () =
  let out = smoke name in
  let names = List.map (fun (n, _, _) -> n) out.Experiment.metrics in
  checki "metric names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let e = Experiment.find name in
  checkb "declares claims" true (e.claims <> []);
  List.iter
    (fun c ->
      let holds, line = Experiment.check out.metrics c in
      checkb line true holds)
    e.claims

module Net_engine = Pgrid_construction.Net_engine
module Maintenance = Pgrid_core.Maintenance

(* A 48-peer simnet run with the maintenance daemon and the transaction
   workload on: the daemon's processes, the legacy query loop and the
   document and recovery loops all run. *)
let net_engine_metrics () =
  let base = Net_engine.default_params ~peers:48 in
  let o =
    Net_engine.run (Pgrid_prng.Rng.create ~seed:42)
      {
        base with
        Net_engine.maint =
          Some
            {
              (Maintenance.default_daemon_config ~n_min:base.Net_engine.n_min) with
              Maintenance.period = 30.;
            };
        txn = Some Net_engine.default_txn_workload;
      }
      ~spec:Pgrid_workload.Distribution.Uniform
  in
  let i name v = (name, float_of_int v) in
  let series name pts = List.map (fun (x, y) -> (Printf.sprintf "%s@%h" name x, y)) pts in
  let qs = o.Net_engine.query_stats in
  let m = Option.get o.Net_engine.maint_stats in
  let t = Option.get o.Net_engine.txn_stats in
  [
    ("deviation", o.Net_engine.deviation);
    i "issued" qs.Net_engine.issued;
    i "succeeded" qs.Net_engine.succeeded;
    ("mean_hops", qs.Net_engine.mean_hops);
    ("mean_latency", qs.Net_engine.mean_latency);
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
  @ series "latency" (List.map (fun (x, mean, _) -> (x, mean)) o.Net_engine.latency_series)

(* Every metric of the simulation experiments, hashed: the smoke runs,
   the overload smoke arms and one simnet run with the daemon and
   transactions on.  A refactor of their scheduling or set-up that
   moves one draw, event or value changes a digest. *)
let test_simulation_digests () =
  let digest values =
    List.map (fun (name, v) -> Printf.sprintf "%s %h\n" name v) values
    |> String.concat ""
    |> Digest.string
    |> Digest.to_hex
  in
  let values = List.map (fun (name, v, _) -> (name, v)) in
  let (_, on), (_, off) = Lazy.force overload_smoke in
  let got =
    List.map
      (fun name -> (name, digest (values (smoke name).Experiment.metrics)))
      [ "survival"; "balance"; "txn"; "partition"; "queries"; "resilience" ]
    @ [ ("overload", digest (values (on @ off))); ("net_engine", digest (net_engine_metrics ())) ]
  in
  Alcotest.(check (list (pair string string)))
    "digests"
    [
      ("survival", "c8579a7222b5cecaa866d1f2dd8a7dba");
      ("balance", "e60aec32989a9fbf19bfd0ebe91d85a6");
      ("txn", "cbff856c46d740b5817a90ed50fc5f6b");
      ("partition", "a7c6de47ed82476538367972c9cfc19d");
      ("queries", "168300ec8ca3226a2762a7c43f1a0c59");
      ("resilience", "a9126da0eb54f3d8f180f44c01127066");
      ("overload", "1ea17279d0a90fe0cdae18c3ff99820a");
      ("net_engine", "792283da1ec0aff9dcff7ff4cca107c1");
    ]
    got

(* The printed tables of the three ablations that merge or hand over
   whole stores, at their default size, hashed: only these runs reach
   [Sequential.join]'s merge, [Merge.copy_into] and [Maintenance]'s
   leave/adopt/join, which neither the simulation digests nor the
   construction goldens cover. *)
let test_ablation_digests () =
  let digest name =
    (Experiment.find name).run ~reps:None ~smoke:false ~seed:bench_seed
    |> (fun out -> out.Experiment.blocks)
    |> List.map (function
         | Experiment.Table { title; columns; rows } ->
           Pgrid_stats.Table.render ~title ~columns ~rows
         | _ -> Alcotest.failf "%s: table expected" name)
    |> String.concat ""
    |> Digest.string
    |> Digest.to_hex
  in
  let names = [ "ablation-seq"; "ablation-merge"; "ablation-maintain" ] in
  Alcotest.(check (list (pair string string)))
    "digests"
    [
      ("ablation-seq", "65a6c276d7bef366f7cdee02a8a0de59");
      ("ablation-merge", "baba5e696317b3d7c03d181d59851827");
      ("ablation-maintain", "3cd17d1bc78fd7caec30517fa8255ab4");
    ]
    (List.map (fun name -> (name, digest name)) names)

let test_claim_reads_missing_metric () =
  let metrics = [ ("on/lost", 0., Experiment.Down) ] in
  let holds, line =
    Experiment.check metrics
      { Experiment.lhs = Metric "on/lsot"; op = Eq; rhs = Const 0. }
  in
  checkb "a misspelled metric fails" false holds;
  checkb "and says which" true (Test_util.contains line "on/lsot");
  checkb "the spelled one holds" true
    (fst (Experiment.check metrics { lhs = Metric "on/lost"; op = Eq; rhs = Const 0. }));
  checkb "unknown names raise" true
    (match Experiment.find "nope" with _ -> false | exception Invalid_argument _ -> true)

let test_summary_renderer () =
  let metrics =
    [
      ("bound/max", 100., Experiment.Down);
      ("on/peak", 87., Down);
      ("on/load@0", 1., Down);
      ("off/peak", 140.5, Down);
      ("off/splits", 0., Down);
    ]
  in
  match Experiment.summary ~title:"t" metrics with
  | Table { columns; rows; _ } ->
    checkb "arms as columns" true (columns = [ "metric"; "bound"; "on"; "off" ]);
    checkb "metrics as rows, gaps dashed" true
      (rows
      = [ [ "max"; "100"; "-"; "-" ]; [ "peak"; "-"; "87"; "140.5" ]; [ "splits"; "-"; "-"; "0" ] ])
  | _ -> Alcotest.fail "table expected"

let test_ablation_sequential () =
  let columns, rows = Figures.ablation_sequential ~sizes:[ 32; 64 ] ~seed:3 () in
  checki "columns" 7 (List.length columns);
  checki "one row per size" 2 (List.length rows);
  (* Serialized latency grows with n. *)
  let latency row = int_of_string (List.nth row 2) in
  checkb "latency grows" true (latency (List.nth rows 1) > latency (List.nth rows 0))

let test_ablation_cost () =
  let columns, rows = Figures.ablation_cost ~sizes:[ 300 ] ~reps:5 ~seed:3 () in
  checki "columns" 7 (List.length columns);
  match rows with
  | [ row ] ->
    let eager = float_of_string (List.nth row 1) in
    let aut = float_of_string (List.nth row 3) in
    checkb "eager near ln 2" true (Float.abs (eager -. log 2.) < 0.15);
    checkb "AUT near 2 ln 2" true (Float.abs (aut -. (2. *. log 2.)) < 0.3)
  | _ -> Alcotest.fail "one row expected"

let test_ablation_correction () =
  let _, rows = Figures.ablation_correction ~n:300 ~reps:5 ~seed:3 () in
  checki "six p values" 6 (List.length rows)

let suite =
  [
    Alcotest.test_case "fig3 shape" `Quick test_fig3_shape;
    Alcotest.test_case "fig4 shape" `Slow test_fig4_shape;
    Alcotest.test_case "fig5 shape" `Slow test_fig5_shape;
    Alcotest.test_case "fig6 rendering" `Quick test_fig6_table_rendering;
    Alcotest.test_case "planetlab artifacts" `Slow test_planetlab_artifacts;
    Alcotest.test_case "survival smoke" `Slow test_survival_smoke;
    Alcotest.test_case "overload smoke" `Slow test_overload_smoke;
    Alcotest.test_case "simulation digests" `Slow test_simulation_digests;
    Alcotest.test_case "ablation digests" `Slow test_ablation_digests;
    Alcotest.test_case "ablation sequential" `Quick test_ablation_sequential;
    Alcotest.test_case "ablation cost" `Slow test_ablation_cost;
    Alcotest.test_case "ablation correction" `Slow test_ablation_correction;
    Alcotest.test_case "claim reads missing metric" `Quick test_claim_reads_missing_metric;
    Alcotest.test_case "summary renderer" `Quick test_summary_renderer;
  ]
  @ List.map
      (fun name ->
        Alcotest.test_case ("smoke claims: " ^ name) `Slow (test_smoke_claims name))
      [ "resilience"; "survival"; "balance"; "txn"; "partition"; "queries" ]
