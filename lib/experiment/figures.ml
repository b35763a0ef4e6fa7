module Rng = Pgrid_prng.Rng
module Moments = Pgrid_stats.Moments
module Series = Pgrid_stats.Series
module Table = Pgrid_stats.Table
module Aep_math = Pgrid_partition.Aep_math
module Mva = Pgrid_partition.Mva
module Discrete = Pgrid_partition.Discrete
module Distribution = Pgrid_workload.Distribution
module Round = Pgrid_construction.Round
module Sequential = Pgrid_construction.Sequential
module Net_engine = Pgrid_construction.Net_engine

let fig3 () =
  let points =
    List.init 60 (fun i ->
        let p = 0.005 *. float_of_int (i + 1) in
        (p, Aep_math.alpha_second_derivative p))
  in
  Series.figure ~title:"Figure 3: alpha''(p) (numerical)" ~x_label:"p"
    ~y_label:"alpha''"
    [ Series.make "alpha''" points ]

let p_grid = [ 0.05; 0.1; 0.15; 0.2; 0.25; 0.3; 0.35; 0.4; 0.45; 0.5 ]

(* One (deviation, interactions) sample per model run. *)
let run_model rng model ~n ~p ~samples =
  match model with
  | `Mva ->
    let o = Mva.run_exact ~n ~p in
    (o.Mva.p0 -. (float_of_int n *. p), o.Mva.interactions)
  | `Sam ->
    let o = Mva.run_sampled rng ~n ~p ~samples in
    (o.Mva.p0 -. (float_of_int n *. p), o.Mva.interactions)
  | `Discrete strategy ->
    let o = Discrete.run rng strategy ~n ~p ~samples in
    ( float_of_int o.Discrete.p0 -. (float_of_int n *. p),
      float_of_int o.Discrete.interactions )

let models =
  [
    ("MVA", `Mva);
    ("SAM", `Sam);
    ("AEP", `Discrete Discrete.Aep);
    ("COR", `Discrete Discrete.Cor);
    ("AUT", `Discrete Discrete.Autonomous);
  ]

let fig45_data_uncached ~n ~samples ~reps ~seed =
  List.map
    (fun (name, model) ->
      let dev_pts, int_pts =
        List.map
          (fun p ->
            let rng = Rng.create ~seed in
            let devs = Moments.create () and ints = Moments.create () in
            let actual_reps = match model with `Mva -> 1 | _ -> reps in
            for _ = 1 to actual_reps do
              let d, i = run_model rng model ~n ~p ~samples in
              Moments.add devs d;
              Moments.add ints i
            done;
            ((p, Moments.mean devs), (p, Moments.mean ints)))
          p_grid
        |> List.split
      in
      (name, dev_pts, int_pts))
    models

let fig45_cache = Hashtbl.create 4

let fig45_data ?(n = 1000) ?(samples = 10) ?(reps = 100) ~seed () =
  let key = (n, samples, reps, seed) in
  match Hashtbl.find_opt fig45_cache key with
  | Some data -> data
  | None ->
    let data = fig45_data_uncached ~n ~samples ~reps ~seed in
    Hashtbl.add fig45_cache key data;
    data

let fig4 ?n ?samples ?reps ~seed () =
  let data = fig45_data ?n ?samples ?reps ~seed () in
  Series.figure ~title:"Figure 4: mean(p0(t) - n p) over repetitions" ~x_label:"p"
    ~y_label:"deviation from n*p"
    (List.map (fun (name, dev, _) -> Series.make name dev) data)

let fig5 ?n ?samples ?reps ~seed () =
  let data = fig45_data ?n ?samples ?reps ~seed () in
  Series.figure ~title:"Figure 5: mean total number of interactions" ~x_label:"p"
    ~y_label:"interactions"
    (List.map (fun (name, _, ints) -> Series.make name ints) data)

type fig6 = {
  title : string;
  categories : string list;
  distributions : string list;
  values : float array array;
}

let fig6_table f =
  let columns = "" :: f.distributions in
  let rows =
    List.mapi
      (fun i cat ->
        cat :: Array.to_list (Array.map (fun v -> Table.fmt_float v) f.values.(i)))
      f.categories
  in
  Table.render ~title:f.title ~columns ~rows

let paper_distributions = Distribution.paper_set
let distribution_labels = List.map Distribution.label paper_distributions

(* Construction runs are shared between Figures 6(a), 6(e) and 6(f) (same
   parameters, different metrics), so cache the outcomes. *)
let round_cache : (Round.params * Distribution.spec * int, Round.outcome) Hashtbl.t =
  Hashtbl.create 64

let round_run ~seed ~params ~spec =
  let key = (params, spec, seed) in
  match Hashtbl.find_opt round_cache key with
  | Some o -> o
  | None ->
    let o = Round.run (Rng.create ~seed) params ~spec in
    Hashtbl.add round_cache key o;
    o

(* Average a Round-engine measurement over repetitions. *)
let round_metric ~reps ~seed ~params ~spec metric =
  let m = Moments.create () in
  for r = 0 to reps - 1 do
    Moments.add m (metric (round_run ~seed:(seed + (1000 * r)) ~params ~spec))
  done;
  Moments.mean m

let fig6_grid ~title ~categories ~reps ~seed ~params_of metric =
  let values =
    Array.of_list
      (List.mapi
         (fun ci _ ->
           Array.of_list
             (List.map
                (fun spec ->
                  round_metric ~reps ~seed ~params:(params_of ci) ~spec metric)
                paper_distributions))
         categories)
  in
  { title; categories; distributions = distribution_labels; values }

let deviation (o : Round.outcome) = o.Round.deviation

let fig6a ?(reps = 5) ~seed () =
  let sizes = [ 256; 512; 1024 ] in
  fig6_grid
    ~title:
      "Figure 6(a): deviation vs population (d_max = 10 n_min, n_min = 5, 10 \
       keys/peer)"
    ~categories:(List.map (fun n -> Printf.sprintf "n=%d" n) sizes)
    ~reps ~seed
    ~params_of:(fun ci -> Round.default_params ~peers:(List.nth sizes ci))
    deviation

let fig6b ?(reps = 5) ~seed () =
  let n_mins = [ 5; 10; 15; 20; 25 ] in
  fig6_grid ~title:"Figure 6(b): deviation vs required replication (n = 256)"
    ~categories:(List.map (fun m -> Printf.sprintf "n_min=%d" m) n_mins)
    ~reps ~seed
    ~params_of:(fun ci ->
      let n_min = List.nth n_mins ci in
      { (Round.default_params ~peers:256) with n_min; d_max = 10 * n_min })
    deviation

let fig6c ?(reps = 5) ~seed () =
  let factors = [ 10; 20; 30 ] in
  fig6_grid ~title:"Figure 6(c): deviation vs data sample size d_max (n = 256)"
    ~categories:(List.map (fun f -> Printf.sprintf "d_max=%d n_min" f) factors)
    ~reps ~seed
    ~params_of:(fun ci ->
      let f = List.nth factors ci in
      { (Round.default_params ~peers:256) with d_max = f * 5 })
    deviation

let fig6d ?(reps = 5) ~seed () =
  let cases =
    [ ("theory n_min=5", Round.Theory, 5); ("heur n_min=5", Round.Heuristic, 5);
      ("theory n_min=10", Round.Theory, 10); ("heur n_min=10", Round.Heuristic, 10) ]
  in
  fig6_grid ~title:"Figure 6(d): theoretical vs heuristic probabilities (n = 256)"
    ~categories:(List.map (fun (l, _, _) -> l) cases)
    ~reps ~seed
    ~params_of:(fun ci ->
      let _, mode, n_min = List.nth cases ci in
      { (Round.default_params ~peers:256) with mode; n_min; d_max = 10 * n_min })
    deviation

let fig6e ?(reps = 5) ~seed () =
  let sizes = [ 256; 512; 1024 ] in
  fig6_grid ~title:"Figure 6(e): construction interactions per peer"
    ~categories:(List.map (fun n -> Printf.sprintf "n=%d" n) sizes)
    ~reps ~seed
    ~params_of:(fun ci -> Round.default_params ~peers:(List.nth sizes ci))
    Round.interactions_per_peer

let fig6f ?(reps = 5) ~seed () =
  let sizes = [ 256; 512; 1024 ] in
  fig6_grid ~title:"Figure 6(f): data keys moved per peer (construction bandwidth)"
    ~categories:(List.map (fun n -> Printf.sprintf "n=%d" n) sizes)
    ~reps ~seed
    ~params_of:(fun ci -> Round.default_params ~peers:(List.nth sizes ci))
    Round.keys_moved_per_peer

(* --- PlanetLab substitute (Figures 7-9, Table 1) ----------------------- *)

let planetlab_cache : (int * int, Net_engine.outcome) Hashtbl.t = Hashtbl.create 4

let planetlab_run ?(peers = 296) ~seed () =
  match Hashtbl.find_opt planetlab_cache (peers, seed) with
  | Some o -> o
  | None ->
    let rng = Rng.create ~seed in
    let params = Net_engine.default_params ~peers in
    let o = Net_engine.run rng params ~spec:Distribution.paper_text in
    Hashtbl.add planetlab_cache (peers, seed) o;
    o

let fig7 ?peers ~seed () =
  let o = planetlab_run ?peers ~seed () in
  Series.figure ~title:"Figure 7: number of participating peers" ~x_label:"minutes"
    ~y_label:"online peers"
    [
      Series.make "peers"
        (List.map (fun (t, c) -> (t, float_of_int c)) o.Net_engine.online_series);
    ]

let fig8 ?peers ~seed () =
  let o = planetlab_run ?peers ~seed () in
  Series.figure ~title:"Figure 8: aggregate bandwidth consumption per peer"
    ~x_label:"minutes" ~y_label:"bytes/second"
    [
      Series.make "maintenance" o.Net_engine.maintenance_bw;
      Series.make "queries" o.Net_engine.query_bw;
    ]

let fig9 ?peers ~seed () =
  let o = planetlab_run ?peers ~seed () in
  let mean = List.map (fun (t, m, _) -> (t, m)) o.Net_engine.latency_series in
  let std = List.map (fun (t, _, s) -> (t, s)) o.Net_engine.latency_series in
  Series.figure ~title:"Figure 9: query latency" ~x_label:"minutes"
    ~y_label:"seconds"
    [ Series.make "average" mean; Series.make "stddev" std ]

let table1 ?peers ~seed () =
  let o = planetlab_run ?peers ~seed () in
  let qs = o.Net_engine.query_stats in
  let st = o.Net_engine.stats in
  let success_rate =
    100. *. float_of_int qs.Net_engine.succeeded /. float_of_int (max 1 qs.Net_engine.issued)
  in
  let columns = [ "statistic"; "paper"; "measured" ] in
  let rows =
    [
      [ "load-balance deviation"; "0.38 (sim) / 0.39 (experiment)";
        Table.fmt_float o.Net_engine.deviation ];
      [ "mean path length"; "slightly below 6";
        Table.fmt_float st.Pgrid_core.Overlay.mean_path_length ];
      [ "mean query hops"; "~3 (half the mean path)";
        Table.fmt_float qs.Net_engine.mean_hops ];
      [ "hops / log2(partitions)"; "~0.5";
        Table.fmt_float
          (qs.Net_engine.mean_hops
          /. (log (float_of_int (max 2 st.Pgrid_core.Overlay.partitions)) /. log 2.)) ];
      [ "mean replication factor"; "5";
        Table.fmt_float st.Pgrid_core.Overlay.mean_replication ];
      [ "query success rate"; "95-100%"; Table.fmt_float success_rate ^ "%" ];
      [ "peers"; "296"; string_of_int st.Pgrid_core.Overlay.peers ];
      [ "partitions"; "-"; string_of_int st.Pgrid_core.Overlay.partitions ];
    ]
  in
  (columns, rows)

(* --- simulation experiments: metrics ------------------------------------- *)

type direction = Up | Down
type metric = string * float * direction

let int_metric name n dir = (name, float_of_int n, dir)

(* [under tag ms] files every metric of [ms] under [tag/]. *)
let under tag = List.map (fun (name, v, dir) -> (tag ^ "/" ^ name, v, dir))

(* The name of one sample of a time series: [name@t], [t] in seconds. *)
let at name t = Printf.sprintf "%s@%.0f" name t

(* --- resilience sweep (construction & queries under faults) ------------- *)

module Fault = Pgrid_simnet.Fault
module Churn = Pgrid_simnet.Churn

(* One fixed fault-plan shape scaled by [severity]: a Gilbert-Elliott
   bursty-loss chain over construction and queries, a partition cutting
   off a minority during part of the query phase, and Poisson
   crash-restarts late in the run.  Severity 0 keeps the hardened
   query path active but injects nothing — the fault-free baseline the
   other rows are judged against. *)
let resilience_plan (phases : Net_engine.phases) severity =
  if severity <= 0. then []
  else begin
    let qs = phases.Net_engine.query_start and te = phases.Net_engine.end_time in
    let span = te -. qs in
    [
      Fault.Bursty_loss
        {
          start = phases.Net_engine.construct_start;
          stop = te;
          step = 5.;
          p_gb = 0.02 *. severity;
          p_bg = 0.2;
          loss_good = 0.;
          loss_bad = 0.6 *. severity;
        };
      Fault.Partition
        {
          start = qs +. (0.25 *. span);
          stop = qs +. (0.40 *. span);
          frac = 0.15 *. severity;
        };
      Fault.Crash_restart
        {
          start = qs +. (0.50 *. span);
          stop = qs +. (0.85 *. span);
          rate = severity /. 4000.;
          down_min = 30.;
          down_max = 120.;
        };
    ]
  end

let resilience_run ~peers ~seed severity =
  let rng = Rng.create ~seed in
  let base = Net_engine.default_params ~peers in
  let phases = base.Net_engine.phases in
  (* Churn off (empty window): the sweep isolates the injected faults. *)
  let no_churn =
    Churn.paper_params ~start:phases.Net_engine.end_time
      ~stop:phases.Net_engine.end_time
  in
  let params =
    {
      base with
      Net_engine.robust = Some Net_engine.default_robust;
      fault_plan = resilience_plan phases severity;
      fault_seed = seed + 7;
      churn = Some no_churn;
    }
  in
  let o = Net_engine.run rng params ~spec:Distribution.paper_text in
  let qs = o.Net_engine.query_stats in
  let rs = Option.get o.Net_engine.robust_stats in
  let crashes =
    match o.Net_engine.fault_stats with Some f -> f.Fault.crashes | None -> 0
  in
  under (Printf.sprintf "s%.1f" severity)
    [
      ("deviation", o.Net_engine.deviation, Down);
      ( "success_pct",
        100.
        *. float_of_int qs.Net_engine.succeeded
        /. float_of_int (max 1 qs.Net_engine.issued),
        Up );
      ("mean_latency", qs.Net_engine.mean_latency, Down);
      int_metric "issued" qs.Net_engine.issued Down;
      int_metric "timeouts" rs.Pgrid_query.Storm.timeouts Down;
      int_metric "retries" rs.Pgrid_query.Storm.retries Down;
      int_metric "give_ups" rs.Pgrid_query.Storm.give_ups Down;
      int_metric "evictions" rs.Pgrid_query.Storm.evictions Down;
      int_metric "crashes" crashes Down;
    ]

let resilience ?(peers = 128) ?(severities = [ 0.0; 0.5; 1.0 ]) ~seed () =
  List.concat_map (resilience_run ~peers ~seed) severities

(* --- ablations ---------------------------------------------------------- *)

let ablation_sequential ?(sizes = [ 64; 128; 256; 512 ]) ~seed () =
  let columns =
    [ "n"; "seq msgs"; "seq latency (serial RTTs)"; "par msgs";
      "par latency (rounds)"; "seq dev"; "par dev" ]
  in
  let rows =
    List.map
      (fun n ->
        let rng = Rng.create ~seed in
        let seq = Sequential.run rng (Sequential.default_params ~peers:n)
            ~spec:Distribution.Uniform
        in
        let rng2 = Rng.create ~seed in
        let par = Round.run rng2 (Round.default_params ~peers:n)
            ~spec:Distribution.Uniform
        in
        [
          string_of_int n;
          string_of_int seq.Sequential.messages;
          string_of_int seq.Sequential.serial_latency;
          string_of_int par.Round.interactions;
          string_of_int par.Round.rounds;
          Table.fmt_float seq.Sequential.deviation;
          Table.fmt_float par.Round.deviation;
        ])
      sizes
  in
  (columns, rows)

let ablation_cost ?(sizes = [ 250; 500; 1000; 2000 ]) ?(reps = 20) ~seed () =
  let columns =
    [ "n"; "eager/n"; "ln 2"; "AUT/n"; "2 ln 2"; "AEP/n (p=0.3)"; "t_lambda/n (p=0.3)" ]
  in
  let ln2 = log 2. in
  let rows =
    List.map
      (fun n ->
        let mean strategy p =
          let rng = Rng.create ~seed in
          let m = Moments.create () in
          for _ = 1 to reps do
            let o = Discrete.run rng strategy ~n ~p ~samples:10 in
            Moments.add m (float_of_int o.Discrete.interactions /. float_of_int n)
          done;
          Moments.mean m
        in
        [
          string_of_int n;
          Table.fmt_float (mean Discrete.Eager 0.5);
          Table.fmt_float ln2;
          Table.fmt_float (mean Discrete.Autonomous 0.5);
          Table.fmt_float (2. *. ln2);
          Table.fmt_float (mean Discrete.Oracle 0.3);
          Table.fmt_float (Aep_math.t_lambda ~n ~p:0.3 /. float_of_int n);
        ])
      sizes
  in
  (columns, rows)

let ablation_correction ?(n = 1000) ?(samples = 10) ?(reps = 50) ~seed () =
  let columns = [ "p"; "AEP (none)"; "COR-T (Eqs. 9-10)"; "COR (calibrated)" ] in
  let rows =
    List.map
      (fun p ->
        let mean strategy =
          let rng = Rng.create ~seed in
          let m = Moments.create () in
          for _ = 1 to reps do
            let o = Discrete.run rng strategy ~n ~p ~samples in
            Moments.add m (float_of_int o.Discrete.p0 -. (float_of_int n *. p))
          done;
          Moments.mean m
        in
        [
          Table.fmt_float ~decimals:2 p;
          Table.fmt_float (mean Discrete.Aep);
          Table.fmt_float (mean Discrete.CorTaylor);
          Table.fmt_float (mean Discrete.Cor);
        ])
      [ 0.05; 0.1; 0.2; 0.3; 0.4; 0.5 ]
  in
  (columns, rows)

(* --- X4: order-preserving overlay vs PHT-over-DHT ----------------------- *)

let ablation_pht ?(peers = 256) ?(keys = 2560) ~seed () =
  let rng = Rng.create ~seed in
  let key_pop = Distribution.generate rng Distribution.Uniform ~n:keys in
  let overlay =
    Pgrid_core.Builder.index rng ~peers ~keys:key_pop ~d_max:50 ~n_min:5
      ~refs_per_level:2
  in
  let dht = Pgrid_baseline.Hash_dht.create rng ~nodes:peers in
  let pht = Pgrid_baseline.Pht.create dht ~block:50 in
  Array.iter
    (fun k ->
      ignore (Pgrid_baseline.Pht.insert pht ~from:(Rng.int rng peers) k "v"))
    key_pop;
  let columns =
    [ "range width"; "P-Grid partitions"; "P-Grid hops"; "PHT node accesses";
      "PHT hops" ]
  in
  let row width =
    let stats = Moments.create () and parts = Moments.create () in
    let pht_hops = Moments.create () and pht_accesses = Moments.create () in
    for _ = 1 to 30 do
      let start = Rng.float rng *. (1. -. width) in
      let lo = Pgrid_keyspace.Key.of_float start in
      let hi = Pgrid_keyspace.Key.of_float (start +. width) in
      let from = Rng.int rng peers in
      let r = Pgrid_core.Overlay.range_search overlay ~from ~lo ~hi in
      Moments.add stats (float_of_int r.Pgrid_core.Overlay.total_hops);
      Moments.add parts (float_of_int (List.length r.Pgrid_core.Overlay.visited));
      let _, c = Pgrid_baseline.Pht.range pht ~from ~lo ~hi in
      Moments.add pht_hops (float_of_int c.Pgrid_baseline.Pht.hops);
      Moments.add pht_accesses (float_of_int c.Pgrid_baseline.Pht.dht_lookups)
    done;
    [
      Table.fmt_float ~decimals:2 width;
      Table.fmt_float ~decimals:1 (Moments.mean parts);
      Table.fmt_float ~decimals:1 (Moments.mean stats);
      Table.fmt_float ~decimals:1 (Moments.mean pht_accesses);
      Table.fmt_float ~decimals:1 (Moments.mean pht_hops);
    ]
  in
  (columns, List.map row [ 0.01; 0.05; 0.1; 0.2 ])

(* --- X5: merging independently created indices --------------------------- *)

let ablation_merge ?(peers = 128) ~seed () =
  let half = peers / 2 in
  let params = Round.default_params ~peers:half in
  let build s =
    Round.run (Rng.create ~seed:s) params ~spec:Distribution.Uniform
  in
  let a = build seed and b = build (seed + 7) in
  let config =
    {
      Pgrid_construction.Engine.n_min = params.Round.n_min;
      d_max = params.Round.d_max;
      max_fruitless = params.Round.max_fruitless;
      refer_hops = params.Round.refer_hops;
      mode = Pgrid_construction.Engine.Theory;
    }
  in
  let merged =
    Pgrid_construction.Merge.overlays (Rng.create ~seed:(seed + 13)) ~config
      ~max_rounds:500 a.Round.overlay b.Round.overlay
  in
  let fresh = Round.run (Rng.create ~seed:(seed + 21)) { params with Round.peers } ~spec:Distribution.Uniform in
  let columns = [ "configuration"; "peers"; "rounds"; "interactions"; "deviation" ] in
  let rows =
    [
      [ "community A alone"; string_of_int half; string_of_int a.Round.rounds;
        string_of_int a.Round.interactions; Table.fmt_float a.Round.deviation ];
      [ "community B alone"; string_of_int half; string_of_int b.Round.rounds;
        string_of_int b.Round.interactions; Table.fmt_float b.Round.deviation ];
      [ "merge of A and B"; string_of_int peers;
        string_of_int merged.Pgrid_construction.Merge.rounds;
        string_of_int
          merged.Pgrid_construction.Merge.counters.Pgrid_construction.Engine.interactions;
        Table.fmt_float merged.Pgrid_construction.Merge.deviation ];
      [ "fresh build over union"; string_of_int peers; string_of_int fresh.Round.rounds;
        string_of_int fresh.Round.interactions; Table.fmt_float fresh.Round.deviation ];
    ]
  in
  (columns, rows)

(* --- X6: maintenance after churn ------------------------------------------ *)

let ablation_maintenance ?(peers = 200) ~seed () =
  let rng = Rng.create ~seed in
  let o = Round.run rng (Round.default_params ~peers) ~spec:Distribution.Uniform in
  let overlay = o.Round.overlay in
  let keys =
    let tbl = Hashtbl.create 1024 in
    for i = 0 to peers - 1 do
      List.iter
        (fun k -> Hashtbl.replace tbl k ())
        (Pgrid_core.Node.keys (Pgrid_core.Overlay.node overlay i))
    done;
    Array.of_list (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
  in
  let success () =
    let s = Pgrid_query.Query.lookup_batch (Rng.create ~seed:(seed + 3)) overlay ~keys ~count:400 in
    100. *. float_of_int s.Pgrid_query.Query.routed /. 400.
  in
  let rows = ref [] in
  let record step value = rows := [ step; value ] :: !rows in
  record "query success, healthy" (Printf.sprintf "%.1f%%" (success ()));
  (* 30%% of the population leaves gracefully. *)
  let leavers =
    Rng.sample_without_replacement rng ~k:(3 * peers / 10) ~n:peers
  in
  let handed =
    Array.fold_left
      (fun acc id -> acc + Pgrid_core.Maintenance.leave rng overlay id)
      0 leavers
  in
  record "graceful leaves (30% of peers)"
    (Printf.sprintf "%d payload copies handed over" handed);
  record "query success, degraded" (Printf.sprintf "%.1f%%" (success ()));
  let rep = Pgrid_core.Maintenance.repair rng overlay ~redundancy:2 in
  record "repair"
    (Printf.sprintf "%d dead refs dropped, %d added, %d unfixable"
       rep.Pgrid_core.Maintenance.dead_refs_dropped
       rep.Pgrid_core.Maintenance.refs_added
       rep.Pgrid_core.Maintenance.unfixable_levels);
  record "query success, repaired" (Printf.sprintf "%.1f%%" (success ()));
  let rejoined = ref 0 in
  Array.iter
    (fun id ->
      let entry =
        let rec pick () =
          let e = Rng.int rng peers in
          if (Pgrid_core.Overlay.node overlay e).Pgrid_core.Node.online then e else pick ()
        in
        pick ()
      in
      match Pgrid_core.Maintenance.join rng overlay id ~entry with
      | Some _ -> incr rejoined
      | None -> ())
    leavers;
  record "re-joins" (Printf.sprintf "%d of %d back" !rejoined (Array.length leavers));
  let bal = Pgrid_core.Maintenance.rebalance rng overlay ~n_min:5 ~max_rounds:200 in
  record "replication rebalance"
    (Printf.sprintf "%d migrations, spread %.2f" bal.Pgrid_core.Maintenance.migrations
       bal.Pgrid_core.Maintenance.final_spread);
  record "query success, final" (Printf.sprintf "%.1f%%" (success ()));
  ([ "step"; "result" ], List.rev !rows)

(* --- survival: hours of churn + permanent kills, daemon on vs off ------- *)

module Sim = Pgrid_simnet.Sim
module Net = Pgrid_simnet.Net
module Latency = Pgrid_simnet.Latency
module Overlay = Pgrid_core.Overlay
module Node = Pgrid_core.Node
module Maintenance = Pgrid_core.Maintenance
module Health = Pgrid_core.Health
module Key = Pgrid_keyspace.Key
module Query = Pgrid_query.Query
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

(* Every distinct key stored in [overlay], in key order. *)
let stored_keys overlay =
  let tbl = Hashtbl.create 1024 in
  for i = 0 to Overlay.size overlay - 1 do
    List.iter (fun k -> Hashtbl.replace tbl k ()) (Node.keys (Overlay.node overlay i))
  done;
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort Key.compare |> Array.of_list

(* --- the simulation harness ---------------------------------------------

   Every arm of the simulation experiments below starts alike: construct
   from [seed], keep the stored keys, then run on a fresh simulator that
   also clocks telemetry.  Each environmental process draws from its own
   stream [stream a i] (seed [seed + i]), so the arms of one experiment
   face the same churn, faults and workload:

   {v
   seed + 1             churn (survival); popularity shuffle (overload)
   seed + 2             network
   seed + 3             fault plan; the storm (overload)
   seed + 4             daemon; transaction manager (txn); arrivals (overload)
   seed + 5             insert or document stream; heartbeats (overload)
   seed + 6             delete stream (partition)
   seed + 7919 (k + 1)  the k-th sample's query batch
   v} *)
type arm = {
  seed : int;
  horizon : float;  (* seconds; the daemon, inserts and sampler stop there *)
  overlay : Overlay.t;
  keys0 : Key.t array;  (* the keys stored after construction, in key order *)
  mutable inserted : Key.t list;  (* keys the insert stream stored, newest first *)
  sim : Sim.t;
  tel : Telemetry.t;
}

let stream a i = Rng.create ~seed:(a.seed + i)

(* The clock is set after construction, so construction's events keep
   the timestamps of whatever clock was set before. *)
let start_arm ~seed ~horizon params =
  let built = Round.run (Rng.create ~seed) params ~spec:Distribution.Uniform in
  let overlay = built.Round.overlay in
  let keys0 = stored_keys overlay in
  let sim = Sim.create () in
  let tel = Pgrid_telemetry.Global.get () in
  Telemetry.set_clock tel (fun () -> Sim.now sim);
  { seed; horizon; overlay; keys0; inserted = []; sim; tel }

(* [keys0], then every inserted key in insertion order. *)
let tracked a () = Array.append a.keys0 (Array.of_list (List.rev a.inserted))

(* Traced liveness: peer [i] (and its [net] endpoint) flips only if [v] is new. *)
let set_online ?net a i v =
  let n = Overlay.node a.overlay i in
  if n.Node.online <> v then begin
    Node.set_online n v;
    Option.iter (fun net -> Net.set_online net i v) net;
    if Telemetry.active a.tel then
      Telemetry.emit a.tel
        (if v then Event.Churn_online { peer = i } else Event.Churn_offline { peer = i })
  end

(* PlanetLab latency, one endpoint per peer, on stream 2. *)
let network ?service a ~loss =
  Net.create ~telemetry:a.tel ?service a.sim (stream a 2) ~nodes:(Overlay.size a.overlay)
    ~latency:Latency.planetlab ~loss ~bucket:60.

let daemon a ?(keys = tracked a) cfg =
  Maintenance.install_daemon ~telemetry:a.tel ~keys a.sim (stream a 4) a.overlay
    ~until:a.horizon cfg

type writes = { mutable ok : int; mutable failed : int }

(* A routed insert every [period] seconds from t = 60: a key from
   [key ()], then an origin from [origin ()] ([None]: a failure).  The
   n-th key stored carries payload "doc-n" and the clock as its stamp,
   joins [a.inserted] and goes to [on_insert]. *)
let insert_stream a ?admit ?(on_insert = ignore) ~period ~key ~origin () =
  let w = { ok = 0; failed = 0 } in
  Sim.every a.sim ~at:60. ~until:a.horizon ~period:(fun () -> period) (fun () ->
      let k = key () in
      match origin () with
      | None -> w.failed <- w.failed + 1
      | Some from -> (
        match
          Overlay.insert ?admit ~stamp:(Sim.now a.sim) a.overlay ~from k
            (Printf.sprintf "doc-%d" w.ok)
        with
        | Some _ ->
          a.inserted <- k :: a.inserted;
          on_insert k;
          w.ok <- w.ok + 1
        | None -> w.failed <- w.failed + 1));
  w

(* Runs the arm to the end, sampling at t = 0, [every], ... up to the
   horizon: a health check of [keys ()] (emitted), then a 200-query
   batch; [point] turns the two into the sample's point.  Returns the
   points in time order. *)
let run_sampled a ?versions ?heal ?(keys = tracked a) ~n_min ~every point =
  let points = ref [] in
  for k = 0 to int_of_float (a.horizon /. every) do
    let t = float_of_int k *. every in
    Sim.schedule_at a.sim ~time:t (fun () ->
        let keys = keys () in
        let r = Health.check ~keys ?versions ~n_min a.overlay in
        Health.emit ~telemetry:a.tel r;
        let q =
          Query.lookup_batch ?heal (stream a (7919 * (k + 1))) a.overlay ~keys ~count:200
        in
        points := point t r q :: !points)
  done;
  Sim.run a.sim;
  List.rev !points

let pct (q : Query.batch_stats) =
  100. *. float_of_int q.Query.routed /. float_of_int (max 1 q.Query.issued)

(* Over points in time order: the last, the largest and the smallest
   percentage (0, 0 and 100 with no points), and the mean. *)
let final f points = match List.rev points with [] -> 0 | p :: _ -> f p
let peak f points = List.fold_left (fun m p -> max m (f p)) 0 points
let least f points = List.fold_left (fun m p -> Float.min m (f p)) 100. points

let mean f points =
  List.fold_left (fun s p -> s +. f p) 0. points
  /. float_of_int (max 1 (List.length points))

type survival_point = { t : float; score : float; lost : int; success_pct : float }

let survival_n_min = 5

(* One arm of the experiment: construct, then [horizon] seconds of paper
   churn plus a permanent-kill wave (30% of the population dies with its
   disk wiped, uniformly over the middle of the run) while fresh keys
   keep being inserted.  The daemon-off arm shares every environmental
   seed, so churn, kills and the insert stream are identical; only the
   maintenance processes differ. *)
let survival_run_one ~peers ~horizon ~sample_every ~maint_period ~daemon:on ~seed =
  let a = start_arm ~seed ~horizon (Round.default_params ~peers) in
  let killed = Array.make peers false in
  Churn.install ~clamp:true a.sim (stream a 1)
    (Churn.paper_params ~start:0. ~stop:horizon)
    ~node_ids:(List.init peers (fun i -> i))
    ~set_online:(fun i v -> if not (killed.(i) && v) then set_online a i v);
  (* The data-loss channel.  The unit network only hosts the fault
     processes; no messages flow through it. *)
  let net : unit Net.t = network a ~loss:0. in
  let fault =
    Fault.install ~telemetry:a.tel
      ~on_kill:(fun i ->
        killed.(i) <- true;
        let n = Overlay.node a.overlay i in
        Node.set_online n false;
        Node.clear_store n)
      net ~seed:(seed + 3)
      [ Fault.Kill
          { start = 0.15 *. horizon; stop = 0.75 *. horizon; count = 3 * peers / 10 } ]
  in
  let dstats =
    if on then
      Some
        (daemon a
           {
             (Maintenance.default_daemon_config ~n_min:survival_n_min) with
             period = maint_period;
             critical = 2;
             (* Half the network can be offline at a churn trough; two
                online references per level dead-end far too often, so
                the refresh tops levels up to six. *)
             redundancy = 6;
             (* A partition that churns dark stays unroutable until the
                monitor recruits into it; a 15 s monitor (vs the 60 s
                default) shrinks that exposure window below the
                sampler's query batches. *)
             monitor_period = 15.;
           })
    else None
  in
  (* Live inserts: one fresh key every 20 s from a random online origin. *)
  let irng = stream a 5 in
  let online_ids () =
    List.filter (fun i -> (Overlay.node a.overlay i).Node.online) (List.init peers Fun.id)
  in
  let writes =
    insert_stream a ~period:20.
      ~key:(fun () -> Key.random irng)
      ~origin:(fun () ->
        match online_ids () with [] -> None | ids -> Some (Rng.pick_list irng ids))
      ()
  in
  (* [heal] turns on the base protocol's correction-on-use (evict the
     dead reference, refill, retry once) for both arms, so the daemon
     arms are compared on top of — not instead of — the paper's passive
     repair. *)
  let points =
    run_sampled a ~heal:true ~n_min:survival_n_min ~every:sample_every (fun t r q ->
        { t; score = r.Health.score; lost = r.Health.lost; success_pct = pct q })
  in
  let daemon_count f = Option.fold ~none:0 ~some:f dstats in
  ( List.map (fun p -> p.score) points,
    under
      (if on then "on" else "off")
      ([
         ("min_success_pct", least (fun p -> p.success_pct) points, Up);
         ("mean_score", mean (fun p -> p.score) points, Up);
         int_metric "final_lost" (final (fun p -> p.lost) points) Down;
         int_metric "kills" (Fault.stats fault).Fault.kills Down;
         int_metric "rereplications" (daemon_count (fun d -> d.Maintenance.rereplications)) Down;
         int_metric "exchanges" (daemon_count (fun d -> d.Maintenance.exchanges)) Down;
         int_metric "keys_synced" (daemon_count (fun d -> d.Maintenance.keys_synced)) Down;
         int_metric "inserted" writes.ok Down;
         int_metric "insert_failures" writes.failed Down;
       ]
      @ List.concat_map
          (fun p ->
            [
              (at "score" p.t, p.score, Up);
              (at "success_pct" p.t, p.success_pct, Up);
              int_metric (at "lost" p.t) p.lost Down;
            ])
          points) )

let survival ?(peers = 192) ?(horizon = 7200.) ?(sample_every = 240.)
    ?(maint_period = 30.) ~seed () =
  if horizon <= 0. then invalid_arg "Figures.survival: horizon must be positive";
  if sample_every <= 0. then
    invalid_arg "Figures.survival: sample_every must be positive";
  let arm daemon =
    survival_run_one ~peers ~horizon ~sample_every ~maint_period ~daemon ~seed
  in
  let on_scores, on = arm true in
  let off_scores, off = arm false in
  (* Share of samples at which the daemon arm's health score is at least
     / strictly above the control arm's. *)
  let frac beats =
    float_of_int (List.length (List.filter Fun.id (List.map2 beats on_scores off_scores)))
    /. float_of_int (max 1 (List.length on_scores))
  in
  on @ off
  @ [ ("dominance/ge_frac", frac ( >= ), Up); ("dominance/gt_frac", frac ( > ), Down) ]

(* --- balance: skewed insert storm, online balancing on vs off ----------- *)

module Balance = Pgrid_core.Balance

type balance_point = {
  t : float;
  partitions : int;
  max_load : int;
  score : float;
  success_pct : float;
}

(* Balancing floors: partitions may subdivide down to pairs, so the
   membership floor (and the health audit's replication target) sits
   well below the construction-time [n_min]. *)
let balance_n_min = 2

(* Splits fire on a period while the storm streams continuously, and
   membership floors bound how deep a partition can subdivide, so the
   balanced arm's load is held within a slack factor of [d_max] rather
   than at it. *)
let balance_slack = 2.0

(* One arm: construct a U-built overlay with one key per peer (few fat
   partitions, so runtime splits have membership to work with), then a
   Pareto-1.5 insert storm — the paper's most skewed synthetic
   distribution — concentrated on the low end of the key space.  Both
   arms share the storm seed; only the daemon differs. *)
let balance_run_one ~peers ~horizon ~sample_every ~d_max ~balanced ~seed =
  let a =
    start_arm ~seed ~horizon
      { (Round.default_params ~peers) with Round.keys_per_peer = 1; d_max }
  in
  let dstats =
    if balanced then
      Some
        (daemon a
           {
             (Maintenance.default_daemon_config ~n_min:balance_n_min) with
             Maintenance.balance =
               Some (Balance.default_config ~d_max ~n_min:balance_n_min);
           })
    else None
  in
  (* The storm: one Pareto-1.5 key every 3 s from a random online
     origin, starting after a minute of quiet. *)
  let irng = stream a 5 in
  let writes =
    insert_stream a ~period:3.
      ~key:(Distribution.sampler (Distribution.Pareto 1.5) irng)
      ~origin:(fun () -> Some (Rng.int irng peers))
      ()
  in
  (* Per-partition storage load over the online population. *)
  let partition_loads () =
    let tbl = Hashtbl.create 64 in
    for i = 0 to Overlay.size a.overlay - 1 do
      let n = Overlay.node a.overlay i in
      if n.Node.online then begin
        let key = Pgrid_keyspace.Path.to_string n.Node.path in
        let load = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
        Hashtbl.replace tbl key (max load (Node.key_count n))
      end
    done;
    Hashtbl.fold (fun _ load acc -> load :: acc) tbl []
  in
  let points =
    run_sampled a ~n_min:balance_n_min ~every:sample_every (fun t r q ->
        let loads = partition_loads () in
        {
          t;
          partitions = List.length loads;
          max_load = List.fold_left max 0 loads;
          score = r.Health.score;
          success_pct = pct q;
        })
  in
  let daemon_count f = Option.fold ~none:0 ~some:f dstats in
  under
    (if balanced then "on" else "off")
    ([
       int_metric "final_max_load" (final (fun p -> p.max_load) points) Down;
       int_metric "peak_max_load" (peak (fun p -> p.max_load) points) Down;
       int_metric "final_partitions" (final (fun p -> p.partitions) points) Down;
       ("min_success_pct", least (fun p -> p.success_pct) points, Up);
       ("mean_score", mean (fun p -> p.score) points, Up);
       int_metric "splits" (daemon_count (fun d -> d.Maintenance.balance_splits)) Down;
       int_metric "retracts" (daemon_count (fun d -> d.Maintenance.balance_retracts)) Down;
       int_metric "keys_moved" (daemon_count (fun d -> d.Maintenance.balance_keys_moved)) Down;
       int_metric "inserted" writes.ok Down;
       int_metric "insert_failures" writes.failed Down;
     ]
    @ List.concat_map
        (fun p ->
          [
            int_metric (at "max_load" p.t) p.max_load Down;
            (at "score" p.t, p.score, Up);
            (at "success_pct" p.t, p.success_pct, Up);
          ])
        points)

let balance ?(peers = 192) ?(horizon = 3600.) ?(sample_every = 180.) ?(d_max = 50)
    ~seed () =
  if horizon <= 0. then invalid_arg "Figures.balance: horizon must be positive";
  if sample_every <= 0. then
    invalid_arg "Figures.balance: sample_every must be positive";
  if d_max < 1 then invalid_arg "Figures.balance: d_max must be >= 1";
  let arm balanced = balance_run_one ~peers ~horizon ~sample_every ~d_max ~balanced ~seed in
  let on = arm true in
  let off = arm false in
  (("bound/max_load", balance_slack *. float_of_int d_max, Down) :: on) @ off

(* --- txn: atomic document indexing under crash-during-commit faults ------ *)

module Txn = Pgrid_core.Txn

let txn_n_min = 5

(* One severity arm: construct, then stream multi-key document inserts
   through the transaction coordinator while a Poisson crash-restart
   process (rate scaled by [severity]) keeps knocking peers over —
   including mid-commit.  Protocol messages ride a lossy, latency-bearing
   simulated network, so prepares and commit pushes genuinely race the
   crashes.  A 60 s recovery pass replays intent logs throughout, and a
   final sweep (after the presumed-abort window) settles everything the
   crashes orphaned.  The audit then judges the durable stores directly:
   every settled document must be fully indexed (committed) or fully
   scrubbed (aborted). *)
let txn_run_one ~peers ~horizon ~doc_interval ~severity ~seed =
  let a = start_arm ~seed ~horizon (Round.default_params ~peers) in
  (* The protocol network: messages carry their delivery continuation,
     so loss and offline destinations genuinely drop protocol steps. *)
  let net : (unit -> unit) Net.t = network a ~loss:0.02 in
  Net.set_handler net (fun _dst deliver -> deliver ());
  let transport =
    {
      Txn.send =
        (fun ~phase ~src ~dst ~deliver ->
          let bytes = 200 + (match phase with Txn.Prepare -> 64 | _ -> 0) in
          Net.send net ~src ~dst ~bytes ~kind:Net.Maintenance deliver);
    }
  in
  let mgr = Txn.create ~telemetry:a.tel a.sim (stream a 4) a.overlay ~transport in
  let fault =
    if severity <= 0. then None
    else
      Some
        (Fault.install ~telemetry:a.tel
           ~on_crash:(fun i ->
             (* Crash wipes volatile state only: in-flight coordinations
                die, the store and the intent log survive. *)
             Txn.note_crash mgr i;
             set_online ~net a i false)
           ~on_restart:(fun i -> set_online ~net a i true)
           net ~seed:(seed + 3)
           [
             Fault.Crash_restart
               {
                 start = 120.;
                 stop = 0.8 *. horizon;
                 rate = 0.0005 *. severity;
                 down_min = 30.;
                 down_max = 120.;
               };
           ])
  in
  (* Document stream: every [doc_interval] seconds a random coordinator
     atomically indexes one fresh document under 3-6 distinct keys. *)
  let drng = stream a 5 in
  let submitted = ref 0 in
  Sim.every a.sim ~at:60. ~until:(0.85 *. horizon) ~period:(fun () -> doc_interval)
    (fun () ->
      let coordinator = Rng.int drng peers in
      let k = 3 + Rng.int drng 4 in
      let picks = Rng.sample_without_replacement drng ~k ~n:(Array.length a.keys0) in
      if (Overlay.node a.overlay coordinator).Node.online then begin
        let doc = Printf.sprintf "doc-%05d" !submitted in
        incr submitted;
        let ops =
          Array.to_list picks
          |> List.map (fun i -> Txn.Put { key = a.keys0.(i); payload = doc })
        in
        ignore (Txn.submit mgr ~coordinator ops)
      end);
  Sim.every a.sim ~at:120. ~until:horizon ~period:(fun () -> 60.) (fun () ->
      ignore (Txn.recover_pass mgr));
  (* Final sweeps, after the last crash has restarted and the
     presumed-abort window of any orphaned transaction has elapsed. *)
  let final_at = horizon +. (Txn.config mgr).Txn.recover_after +. 60. in
  List.iter
    (fun time -> Sim.schedule_at a.sim ~time (fun () -> ignore (Txn.recover_pass mgr)))
    [ final_at; final_at +. 60. ];
  Sim.run a.sim;
  (* --- audit ----------------------------------------------------------- *)
  let settled = Txn.settled_docs mgr in
  let postings = Hashtbl.create 4096 in
  for i = 0 to peers - 1 do
    let n = Overlay.node a.overlay i in
    List.iter
      (fun k -> List.iter (fun p -> Hashtbl.replace postings (k, p) ()) (Node.lookup n k))
      (Node.keys n)
  done;
  let present (doc, ks) =
    Array.fold_left
      (fun acc k -> if Hashtbl.mem postings (k, doc) then acc + 1 else acc)
      0 ks
  in
  let docs = Array.of_list (List.map (fun (d, ks, _) -> (d, ks)) settled) in
  let report = Health.check ~keys:a.keys0 ~docs ~n_min:txn_n_min a.overlay in
  Health.emit ~telemetry:a.tel report;
  let committed, aborted =
    List.partition (fun (_, _, c) -> c) settled
  in
  let lost_committed =
    List.length
      (List.filter
         (fun (d, ks, _) -> Array.length ks > 0 && present (d, ks) = 0)
         committed)
  in
  let abort_residue =
    List.length (List.filter (fun (d, ks, _) -> present (d, ks) > 0) aborted)
  in
  let s = Txn.stats mgr in
  under (Printf.sprintf "s%.1f" severity)
    [
      ( "commit_pct",
        100. *. float_of_int (List.length committed)
        /. float_of_int (max 1 !submitted),
        Up );
      int_metric "submitted" !submitted Up;
      int_metric "committed" (List.length committed) Up;
      int_metric "aborted" (List.length aborted) Down;
      int_metric "pending" (Txn.in_flight mgr) Down;
      int_metric "torn" report.Health.torn Down;
      int_metric "lost_committed" lost_committed Down;
      int_metric "abort_residue" abort_residue Down;
      int_metric "recovered" s.Txn.recovered Up;
      int_metric "redelivered" s.Txn.redelivered Down;
      int_metric "undos" s.Txn.undos Down;
      int_metric "timeouts" s.Txn.timeouts Down;
      int_metric "retries" s.Txn.retries Down;
      int_metric "crashes"
        (match fault with Some f -> (Fault.stats f).Fault.crashes | None -> 0)
        Down;
      int_metric "intents_left" (Txn.intent_count mgr) Down;
    ]

let txn ?(peers = 192) ?(horizon = 3600.) ?(doc_interval = 6.)
    ?(severities = [ 0.; 0.3; 0.6 ]) ~seed () =
  if horizon <= 0. then invalid_arg "Figures.txn: horizon must be positive";
  if doc_interval <= 0. then
    invalid_arg "Figures.txn: doc_interval must be positive";
  List.concat_map
    (fun severity -> txn_run_one ~peers ~horizon ~doc_interval ~severity ~seed)
    severities

(* --- overload: Zipf query storm, admission control on vs off ------------- *)

module Storm = Pgrid_query.Storm
module Breaker = Pgrid_simnet.Breaker
module Sample = Pgrid_prng.Sample

type overload_point = {
  t : float;  (* window start, seconds *)
  issued : int;  (* queries issued during the window *)
  goodput : float;  (* successful completions per second *)
  shed : int;  (* service-queue sheds during the window *)
  backlog : int;  (* messages queued network-wide at window end *)
}

let overload_service_rate = 2.

(* One arm: build the overlay, then drive a Zipf-1.1 lookup storm through
   the simulated network while every peer services messages at a bounded
   rate.  Offered load ramps [warm -> storm -> recovery]; under the skew
   the binding constraint is the service capacity of the hottest
   partitions' replica sets, which the storm plateau exceeds severalfold.
   The environment (arrival times, key choices, origins) comes from its
   own seeded streams, so both arms see the identical storm; only the
   protection differs.  The unprotected arm has effectively unbounded
   queues, no breakers and no hedging: queues on hot replicas grow
   through the plateau and keep absorbing service slots long after the
   ramp ends, while client retries amplify the residual load - goodput
   stays depressed (metastable collapse).  The protected arm sheds at
   arrival, breaks circuits to saturated replicas and hedges slow hops,
   so it returns to the pre-ramp baseline within a few windows. *)
let overload_arm ?(peers = 10_000) ?(horizon = 1440.) ?(base_rate = 30.)
    ?(peak_rate = 300.) ~protected ~seed () =
  if peers < 8 then invalid_arg "Figures.overload: need at least 8 peers";
  if horizon <= 0. then invalid_arg "Figures.overload: horizon must be positive";
  if base_rate <= 0. || peak_rate <= 0. then
    invalid_arg "Figures.overload: rates must be positive";
  let a = start_arm ~seed ~horizon (Round.default_params ~peers) in
  let keys = Array.copy a.keys0 in
  (* Decorrelate popularity rank from key-space position: without the
     shuffle the sorted hot head would pile into one partition. *)
  Rng.shuffle (stream a 1) keys;
  let zipf = Sample.Zipf.create ~n:(Array.length keys) ~s:1.1 in
  let service =
    if protected then
      Some
        {
          Net.service_rate = overload_service_rate;
          queue_capacity = 16;
          (* A query admitted behind more than 6 others waits > 3 s for
             service — past most of its 4 s timeout, so it would only
             burn a slot on an answer nobody is waiting for.  Shed it
             instead; maintenance tolerates the full queue. *)
          query_threshold = 6;
        }
    else
      (* Same service capacity, but queues deep enough to never shed:
         saturation turns into unbounded backlog instead. *)
      Some
        {
          Net.service_rate = overload_service_rate;
          queue_capacity = max_int / 2;
          query_threshold = max_int / 2;
        }
  in
  let net : Storm.wire Net.t = network ?service a ~loss:0.02 in
  let cfg =
    {
      Storm.default_config with
      hedge_after = (if protected then Some 2. else None);
      breaker = (if protected then Some Breaker.default_config else None);
    }
  in
  let storm = Storm.create ~telemetry:a.tel a.sim (stream a 3) a.overlay net cfg in
  let warm_end = horizon /. 6. and storm_end = horizon /. 2. in
  let rate now = if now >= warm_end && now < storm_end then peak_rate else base_rate in
  (* Arrival process: Poisson at the phase rate, key by Zipf popularity,
     origin uniform - all from [arng], so the two arms receive the very
     same storm. *)
  let arng = stream a 4 in
  Sim.every a.sim ~at:(Sample.exponential arng ~rate:base_rate) ~until:horizon
    ~period:(fun () -> Sample.exponential arng ~rate:(rate (Sim.now a.sim))) (fun () ->
      let key = keys.(Sample.Zipf.draw zipf arng - 1) in
      let origin = Rng.int arng peers in
      Storm.issue storm ~origin ~key);
  (* Light background maintenance traffic (a heartbeat per peer per
     minute): under the protected arm's priority policy it keeps flowing
     while queries shed first. *)
  let hrng = stream a 5 in
  for i = 0 to peers - 1 do
    Sim.every a.sim ~at:(Sample.uniform hrng ~lo:0. ~hi:60.) ~until:horizon
      ~period:(fun () -> 60.) (fun () ->
        let dst = Rng.int hrng peers in
        if dst <> i then Storm.heartbeat storm ~src:i ~dst)
  done;
  (* Windowed sampler: deltas of the storm counters per [horizon/24]. *)
  let window = horizon /. 24. in
  let points = ref [] in
  let last = ref (0, 0, 0) in
  for k = 1 to 24 do
    let at = float_of_int k *. window in
    Sim.schedule_at a.sim ~time:at (fun () ->
        let s = Storm.stats storm in
        let pi, ps, psh = !last in
        last := (s.Storm.issued, s.Storm.succeeded, s.Storm.sheds);
        points :=
          {
            t = at -. window;
            issued = s.Storm.issued - pi;
            goodput = float_of_int (s.Storm.succeeded - ps) /. window;
            shed = s.Storm.sheds - psh;
            backlog = Net.backlog net;
          }
          :: !points)
  done;
  Sim.run a.sim;
  let points = List.rev !points in
  let mean_goodput filter = mean (fun p -> p.goodput) (List.filter filter points) in
  (* Baseline: the settled half of the warm phase. Recovery: the final
     quarter of the run, half the recovery phase after the ramp ends. *)
  let pre_goodput =
    mean_goodput (fun p -> p.t >= warm_end /. 2. && p.t < warm_end)
  in
  let post_goodput = mean_goodput (fun p -> p.t >= 0.75 *. horizon) in
  let recovery_ratio = if pre_goodput > 0. then post_goodput /. pre_goodput else 0. in
  let time_to_recover, recovered =
    (* Sustained recovery: the first post-ramp window from which goodput
       never again falls below 90% of the baseline.  A one-window spike
       does not count — right after the ramp ends the unprotected arm
       still completes a burst of long-queued lookups before sliding
       back into its backlog, and that blip must not read as recovery. *)
    let healthy p = p.goodput >= 0.9 *. pre_goodput in
    let post = List.filter (fun p -> p.t >= storm_end) points in
    let rec scan = function
      | [] -> (horizon -. storm_end, false)
      | p :: rest ->
        if healthy p && List.for_all healthy rest then
          (p.t +. window -. storm_end, true)
        else scan rest
    in
    scan post
  in
  let p50_completion, p99_completion =
    let lat =
      List.filter_map
        (fun c ->
          if c.Storm.success then Some (c.Storm.finished_at -. c.Storm.issued_at)
          else None)
        (Storm.completions storm)
      |> Array.of_list
    in
    Array.sort compare lat;
    let pick q =
      if Array.length lat = 0 then 0.
      else lat.(min (Array.length lat - 1)
                 (int_of_float (q *. float_of_int (Array.length lat))))
    in
    (pick 0.50, pick 0.99)
  in
  let s = Storm.stats storm in
  ( List.map (fun p -> p.issued) points,
    under
      (if protected then "on" else "off")
      ([
         ("pre_goodput", pre_goodput, Up);
         ("post_goodput", post_goodput, Up);
         ("recovery_ratio", recovery_ratio, Up);
         ("recovered", (if recovered then 1. else 0.), Up);
         ("time_to_recover", time_to_recover, Down);
         ("p50_completion", p50_completion, Down);
         ("p99_completion", p99_completion, Down);
         ( "shed_ratio",
           float_of_int s.Storm.sheds /. float_of_int (max 1 (Net.messages_sent net)),
           Down );
         int_metric "messages_sent" (Net.messages_sent net) Down;
         int_metric "messages_dropped" (Net.messages_dropped net) Down;
         int_metric "issued" s.Storm.issued Up;
         int_metric "succeeded" s.Storm.succeeded Up;
         int_metric "failed" s.Storm.failed Down;
         int_metric "timeouts" s.Storm.timeouts Down;
         int_metric "retries" s.Storm.retries Down;
         int_metric "give_ups" s.Storm.give_ups Down;
         int_metric "hedges" s.Storm.hedges Down;
         int_metric "hedge_wins" s.Storm.hedge_wins Up;
         int_metric "breaker_opens" s.Storm.breaker_opens Down;
         int_metric "breaker_skips" s.Storm.breaker_skips Down;
         int_metric "sheds" s.Storm.sheds Down;
         int_metric "sheds_query" s.Storm.sheds_query Down;
         int_metric "sheds_maintenance" s.Storm.sheds_maintenance Down;
         int_metric "queue_peak" s.Storm.queue_peak Down;
       ]
      @ List.concat_map
          (fun p ->
            [
              (at "goodput" p.t, p.goodput, Up);
              int_metric (at "shed" p.t) p.shed Down;
              int_metric (at "backlog" p.t) p.backlog Down;
            ])
          points) )

let overload ?peers ?horizon ?base_rate ?peak_rate ~seed () =
  let arm protected =
    snd (overload_arm ?peers ?horizon ?base_rate ?peak_rate ~protected ~seed ())
  in
  let on = arm true in
  let off = arm false in
  let v ms name =
    let _, x, _ = List.find (fun (n, _, _) -> n = name) ms in
    x
  in
  on @ off
  @ [
      ( "protection/recovery_gain",
        v on "on/recovery_ratio" -. v off "off/recovery_ratio",
        Up );
      ("protection/p99_gain", v off "off/p99_completion" -. v on "on/p99_completion", Up);
    ]

(* --- partition: split-brain window, reconciliation on vs off ------------- *)

module Reconcile = Pgrid_core.Reconcile

let partition_n_min = 2

(* One arm of the split-brain experiment: construct, cut the network in
   half for [stop - start] seconds while a skewed insert storm and a
   routed delete stream keep hitting both sides (each gated by
   {!Fault.connected}, so writes only reach the origin's island), with
   load balancing live on both sides — the overloaded paths split
   independently per island — then heal and watch the version audits.
   Both arms share every environmental seed; only [reconcile] differs. *)
let partition_run_one ~peers ~horizon ~sample_every ~start ~stop ~bound
    ~reconciling ~seed =
  let params = Round.default_params ~peers in
  let a = start_arm ~seed ~horizon params in
  (* The keys that *should* exist: initial and inserted, minus routed
     deletes.  A deleted key must stay gone — if it is findable again
     the audit reports it as resurrected, not lost. *)
  let live = ref (Array.to_list a.keys0) in
  let live_n = ref (Array.length a.keys0) in
  let tracked_keys () = Array.of_list !live in
  let net : unit Net.t = network a ~loss:0. in
  let fault =
    Fault.install ~telemetry:a.tel net ~seed:(seed + 3)
      [ Fault.Partition { start; stop; frac = 0.5 } ]
  in
  let adm src dst = Fault.connected fault ~src ~dst in
  let dstats =
    daemon a ~keys:tracked_keys
      {
        (Maintenance.default_daemon_config ~n_min:partition_n_min) with
        (* Construction leaves ~5 members per partition, so one island
           sees 2-3 of them: a balance floor of 1 lets an island-local
           view split once it has three members and an overloaded
           store.  [d_max] matches construction, so only storm-fed
           paths split. *)
        Maintenance.balance =
          Some (Balance.default_config ~d_max:params.Round.d_max ~n_min:1);
        admit = Some adm;
        reconcile =
          (if reconciling then
             Some
               {
                 Reconcile.default_config with
                 Reconcile.period = 60.;
                 (* Tombstones must outlive the cut plus the time
                    reconciliation is allowed to take, or GC would turn
                    un-synced deletes back into resurrections. *)
                 gc_after = stop -. start +. bound;
               }
           else None);
      }
  in
  (* The storm: one Pareto-1.5 key every 10 s — skewed, so the hot
     low-end paths keep crossing [d_max] and split *during* the cut. *)
  let irng = stream a 5 in
  let writes =
    insert_stream a ~admit:adm ~period:10.
      ~key:(Distribution.sampler (Distribution.Pareto 1.5) irng)
      ~origin:(fun () -> Some (Rng.int irng peers))
      ~on_insert:(fun key ->
        live := key :: !live;
        incr live_n)
      ()
  in
  (* The delete stream: every 30 s one routed whole-key delete of a
     random live key.  During the cut only the origin's island applies
     it; the other side's copies are exactly the stale state
     reconciliation must outvote after heal. *)
  let drng = stream a 6 in
  let deletes = { ok = 0; failed = 0 } in
  Sim.every a.sim ~at:90. ~until:horizon ~period:(fun () -> 30.) (fun () ->
      if !live_n > 0 then begin
        let at = Rng.int drng !live_n in
        let key = List.nth !live at in
        let from = Rng.int drng peers in
        match Overlay.delete ~admit:adm ~stamp:(Sim.now a.sim) a.overlay ~from key with
        | Some _ ->
          live := List.filteri (fun i _ -> i <> at) !live;
          decr live_n;
          deletes.ok <- deletes.ok + 1
        | None -> deletes.failed <- deletes.failed + 1
      end);
  (* The audit is version-aware in both arms — the baseline maintains
     the sidecar too, it just never acts on it — and the query batch's
     correction-on-use repairs stale routing references in both. *)
  let points =
    run_sampled a ~versions:true ~heal:true ~keys:tracked_keys ~n_min:partition_n_min
      ~every:sample_every (fun t r _ -> (t, r))
  in
  let reports = List.map snd points in
  let clean (_, r) = Health.(r.resurrected = 0 && r.diverged = 0 && r.lost = 0) in
  (* Seconds after heal until the first clean sample that stays clean. *)
  let converged_at =
    let rec scan = function
      | [] -> None
      | ((t, _) as p) :: rest ->
        if t >= stop && clean p && List.for_all clean rest then Some (t -. stop)
        else scan rest
    in
    scan points
  in
  under
    (if reconciling then "on" else "off")
    ([
       ("converged", (if converged_at = None then 0. else 1.), Up);
       ("converge_seconds", Option.value ~default:horizon converged_at, Down);
       int_metric "final_resurrected" (final (fun r -> r.Health.resurrected) reports) Down;
       int_metric "final_diverged" (final (fun r -> r.Health.diverged) reports) Down;
       int_metric "final_lost" (final (fun r -> r.Health.lost) reports) Down;
       int_metric "peak_resurrected" (peak (fun r -> r.Health.resurrected) reports) Down;
       int_metric "peak_diverged" (peak (fun r -> r.Health.diverged) reports) Down;
       int_metric "inserted" writes.ok Up;
       int_metric "deleted" deletes.ok Up;
       int_metric "insert_failures" writes.failed Down;
       int_metric "delete_failures" deletes.failed Down;
       int_metric "syncs" dstats.Maintenance.exchanges Up;
       int_metric "repairs" dstats.Maintenance.divergences_repaired Up;
       int_metric "tombstones_purged" dstats.Maintenance.tombstones_purged Up;
       int_metric "splits" dstats.Maintenance.balance_splits Up;
     ]
    @ List.concat_map
        (fun (t, r) ->
          [
            int_metric (at "resurrected" t) r.Health.resurrected Down;
            int_metric (at "diverged" t) r.Health.diverged Down;
            int_metric (at "lost" t) r.Health.lost Down;
            int_metric (at "tombstones" t) r.Health.tombstone_debt Down;
            (at "score" t, r.Health.score, Up);
          ])
        points)

let partition ?(peers = 1024) ?(horizon = 14400.) ?(sample_every = 240.) ~seed () =
  if horizon <= 0. then invalid_arg "Figures.partition: horizon must be positive";
  if sample_every <= 0. then
    invalid_arg "Figures.partition: sample_every must be positive";
  let start = 0.25 *. horizon and stop = 0.75 *. horizon in
  let bound = 0.125 *. horizon in
  let arm reconciling =
    partition_run_one ~peers ~horizon ~sample_every ~start ~stop ~bound ~reconciling
      ~seed
  in
  let on = arm true in
  let off = arm false in
  (("bound/converge_seconds", bound, Down) :: on) @ off

(* --- queries: million-lookup Zipf storm, route/result caching on vs off -- *)

module Engine = Pgrid_query.Engine
module Qcache = Pgrid_query.Qcache
module Path = Pgrid_keyspace.Path

(* Smallest hop count at or below which a [frac] share of routed queries
   completed. *)
let queries_percentile hist routed frac =
  let want =
    int_of_float (ceil (frac *. float_of_int routed)) |> max 1
  in
  let rec go h acc =
    if h >= Array.length hist then Array.length hist - 1
    else begin
      let acc = acc + hist.(h) in
      if acc >= want then h else go (h + 1) acc
    end
  in
  if routed = 0 then 0 else go 0 0

(* Modeled-network service costs behind [qps].  In-process, a routing
   hop is a function call and a cache probe a hash lookup, so wall
   clock inverts the real economics; deployed, every hop is a network
   message (PlanetLab median one-way delay — the same
   [Latency.planetlab] shape the daemon experiments sample) that dwarfs
   a local probe.  Charging those costs makes [qps] the serial-replay
   throughput over the modeled network — and fully seed-deterministic,
   so CI can compare it exactly. *)
let queries_hop_seconds = 0.15
let queries_probe_seconds = 1e-5

(* The two arms replay one pregenerated (origin, key) trace — identical
   draws by construction, not by RNG-discipline luck.  Construction is
   followed by one global anti-entropy round so every replica of a
   partition answers key presence identically; with both arms then
   reading the same stores, [routed] and [found] must agree exactly and
   any divergence is a cache-correctness bug. *)
let queries_run ~peers ~count ~seed =
  let rng = Rng.create ~seed in
  let built = Round.run rng (Round.default_params ~peers) ~spec:Distribution.Uniform in
  let overlay = built.Round.overlay in
  ignore (Overlay.anti_entropy overlay);
  let keys = stored_keys overlay in
  (* Responsibility closure over the queried key universe.  Exact-path
     anti-entropy leaves a node whose path is a strict prefix of a
     deeper group's without that group's keys — yet a walk can
     legitimately terminate at either, and the two arms' walks for the
     same query may terminate at different ones (a cache jump picks a
     different replica).  Giving every responsible node each queried key
     (bare presence plus the full payload union) makes [found] depend
     only on the trace, never on which valid terminal a walk reached. *)
  let () =
    let canonical = Hashtbl.create (Array.length keys) in
    for i = 0 to peers - 1 do
      let n = Overlay.node overlay i in
      List.iter
        (fun k ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt canonical k) in
          let missing =
            List.filter (fun p -> not (List.mem p existing)) (Node.lookup n k)
          in
          Hashtbl.replace canonical k (missing @ existing))
        (Node.keys n)
    done;
    (* First index whose key is >= [target]; [keys] is still sorted. *)
    let lower_bound target =
      let lo = ref 0 and hi = ref (Array.length keys) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Key.to_int keys.(mid) < target then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    for i = 0 to peers - 1 do
      let n = Overlay.node overlay i in
      let lo, hi = Path.interval_keys n.Node.path in
      for j = lower_bound lo to lower_bound hi - 1 do
        let k = keys.(j) in
        (* [add_postings] propagates bare presence: construction indexes
           keys without payloads, which a payload-union pass would skip
           entirely. *)
        ignore
          (Node.add_postings n k (Option.value ~default:[] (Hashtbl.find_opt canonical k)))
      done
    done
  in
  (* Decorrelate popularity rank from key-space position, as in the
     overload storm. *)
  Rng.shuffle (Rng.create ~seed:(seed + 1)) keys;
  let zipf = Sample.Zipf.create ~n:(Array.length keys) ~s:1.1 in
  let trng = Rng.create ~seed:(seed + 2) in
  let origins = Array.make count 0 in
  let qkeys = Array.make count keys.(0) in
  for i = 0 to count - 1 do
    origins.(i) <- Rng.int trng peers;
    qkeys.(i) <- keys.(Sample.Zipf.draw zipf trng - 1)
  done;
  let arm cached =
    let cache = if cached then Some (Qcache.create overlay) else None in
    let hist = Array.make (Overlay.max_hops + 2) 0 in
    let routed = ref 0 and found = ref 0 in
    let hops_sum = ref 0 and peak = ref 0 in
    (* All messages paid, successful or not — failed walks still cost
       their hops on the modeled network. *)
    let all_hops = ref 0 in
    for i = 0 to count - 1 do
      let r = Engine.lookup ?cache overlay ~from:origins.(i) qkeys.(i) in
      all_hops := !all_hops + r.Engine.hops;
      match r.Engine.responsible with
      | Some _ ->
        incr routed;
        if r.Engine.key_present then incr found;
        hops_sum := !hops_sum + r.Engine.hops;
        if r.Engine.hops > !peak then peak := r.Engine.hops;
        let h = min r.Engine.hops (Array.length hist - 1) in
        hist.(h) <- hist.(h) + 1
      | None -> ()
    done;
    let mean_hops =
      if !routed = 0 then 0. else float_of_int !hops_sum /. float_of_int !routed
    in
    let cstats =
      match cache with
      | Some c -> Qcache.stats c
      | None ->
        {
          Qcache.route_hits = 0; result_hits = 0; misses = 0; stale = 0;
          invalidations = 0; evictions = 0; route_entries = 0;
          result_entries = 0;
        }
    in
    let qps =
      let probes =
        cstats.Qcache.route_hits + cstats.Qcache.result_hits
        + cstats.Qcache.misses + cstats.Qcache.stale
      in
      let net_seconds =
        (float_of_int !all_hops *. queries_hop_seconds)
        +. (float_of_int probes *. queries_probe_seconds)
      in
      if net_seconds > 0. then float_of_int count /. net_seconds
      else float_of_int count
    in
    ( qps,
      mean_hops,
      under
        (if cached then "on" else "off")
        ([
           int_metric "issued" count Up;
           int_metric "routed" !routed Up;
           int_metric "found" !found Up;
           ("mean_hops", mean_hops, Down);
           int_metric "p50_hops" (queries_percentile hist !routed 0.5) Down;
           int_metric "p99_hops" (queries_percentile hist !routed 0.99) Down;
           int_metric "max_hops" !peak Down;
           ("qps", qps, Up);
         ]
        @
        if cached then
          [
            ("hit_ratio", Qcache.hit_ratio cstats, Up);
            int_metric "result_hits" cstats.Qcache.result_hits Up;
            int_metric "route_hits" cstats.Qcache.route_hits Up;
            int_metric "stale_probes" cstats.Qcache.stale Down;
          ]
        else []) )
  in
  let off_qps, off_hops, off = arm false in
  let on_qps, on_hops, on = arm true in
  (* Batched lookups, measured without caches so [messages] vs [naive]
     isolates the prefix-sharing win. *)
  let batch =
    let brng = Rng.create ~seed:(seed + 3) in
    let groups = 200 and group_size = 32 in
    let messages = ref 0 and naive = ref 0 in
    let unresolved = ref 0 and bkeys = ref 0 in
    for _ = 1 to groups do
      let from = Rng.int brng peers in
      let ks =
        List.init group_size (fun _ -> keys.(Sample.Zipf.draw zipf brng - 1))
      in
      bkeys := !bkeys + group_size;
      let b = Engine.lookup_many overlay ~from ks in
      messages := !messages + b.Engine.messages;
      naive := !naive + b.Engine.naive_messages;
      unresolved := !unresolved + b.Engine.unresolved
    done;
    under "batch"
      [
        int_metric "groups" groups Up;
        int_metric "keys" !bkeys Up;
        (* Forwards the shared walks sent, against what the same
           resolutions cost walked one key at a time. *)
        int_metric "messages" !messages Down;
        int_metric "naive_messages" !naive Down;
        int_metric "unresolved" !unresolved Down;
        ( "saving_frac",
          (if !naive = 0 then 0.
           else 1. -. (float_of_int !messages /. float_of_int !naive)),
          Up );
      ]
  in
  (* Stale-cache correctness under a live balance storm: a skewed insert
     stream pushes hot partitions past [d_max] so Balance.pass keeps
     splitting (re-homed members invalidate cache entries through the
     overlay's change feed), while churn toggles peers offline so
     entries go stale the invalidation feed cannot see.  Every answered
     query is audited: the responsible peer returned must genuinely be
     online and responsible, and a cache-served answer must match the
     live store. *)
  let storm =
    let cache = Qcache.create overlay in
    let srng = Rng.create ~seed:(seed + 4) in
    let sample_key = Distribution.sampler (Distribution.Pareto 1.5) srng in
    let d_max = (Round.default_params ~peers).Round.d_max in
    let bcfg = Balance.default_config ~d_max ~n_min:1 in
    let rounds = 20 in
    let inserts_per_round = max 20 (peers / 100) in
    let queries_per_round = max 200 (count / 2000) in
    let churn_per_round = max 2 (peers / 200) in
    let q = ref 0 and routed = ref 0 and wrong = ref 0 and mismatch = ref 0 in
    let splits = ref 0 in
    let offline = ref [] in
    for _round = 1 to rounds do
      for i = 1 to inserts_per_round do
        let from = Rng.int srng peers in
        if (Overlay.node overlay from).Node.online then
          ignore (Overlay.insert overlay ~from (sample_key ())
                    (Printf.sprintf "storm-%d" i))
      done;
      (* Churn: take a few peers down (their cached entries turn stale),
         bring the previous round's victims back. *)
      List.iter
        (fun i -> Node.set_online (Overlay.node overlay i) true)
        !offline;
      offline := [];
      for _ = 1 to churn_per_round do
        let i = Rng.int srng peers in
        let n = Overlay.node overlay i in
        if n.Node.online then begin
          Node.set_online n false;
          offline := i :: !offline
        end
      done;
      for _ = 1 to queries_per_round do
        incr q;
        let from = Rng.int srng peers in
        let k = qkeys.(Rng.int srng count) in
        let r = Engine.lookup ~cache overlay ~from k in
        match r.Engine.responsible with
        | None -> ()
        | Some id ->
          incr routed;
          let n = Overlay.node overlay id in
          if not (n.Node.online && Node.responsible_for n k) then incr wrong;
          if r.Engine.key_present <> Node.has_key n k then incr mismatch
      done;
      let report = Balance.pass srng overlay bcfg in
      splits := !splits + report.Balance.splits
    done;
    List.iter (fun i -> Node.set_online (Overlay.node overlay i) true) !offline;
    let cstats = Qcache.stats cache in
    under "storm"
      [
        int_metric "queries" !q Up;
        int_metric "routed" !routed Up;
        int_metric "wrong_responsible" !wrong Down;
        (* A cached answer that disagreed with the live store. *)
        int_metric "mismatch" !mismatch Down;
        (* Stale hits that fell back to routing. *)
        int_metric "stale" cstats.Qcache.stale Up;
        int_metric "splits" !splits Up;
        int_metric "invalidations" cstats.Qcache.invalidations Up;
        ("hit_ratio", Qcache.hit_ratio cstats, Up);
      ]
  in
  on @ off
  @ [
      ("speedup", on_qps /. off_qps, Up);
      ("hop_reduction", 1. -. (on_hops /. off_hops), Up);
    ]
  @ storm @ batch

let queries ~peers ~count ~seed () =
  if peers < 8 then invalid_arg "Figures.queries: need at least 8 peers";
  if count < 1 then invalid_arg "Figures.queries: count must be >= 1";
  queries_run ~peers ~count ~seed
