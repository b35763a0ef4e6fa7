(* Tests for Pgrid_construction: estimators, the round engine, the
   sequential baseline and the network engine. *)

module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Distribution = Pgrid_workload.Distribution
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Estimate = Pgrid_construction.Estimate
module Round = Pgrid_construction.Round
module Sequential = Pgrid_construction.Sequential
module Net_engine = Pgrid_construction.Net_engine

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let close ?(eps = 1e-9) msg a b = Alcotest.check (Alcotest.float eps) msg a b

(* --- Estimate ----------------------------------------------------------- *)

let test_estimate_synced_anchor () =
  (* D1 = D2 with d keys: Chapman gives exactly d, replicas exactly n_min. *)
  close "distinct" 40. (Estimate.distinct_keys ~d1:40 ~d2:40 ~overlap:40);
  close "replicas" 5. (Estimate.replicas ~n_min:5 ~d1:40 ~d2:40 ~overlap:40)

let test_estimate_unbiased_direction () =
  (* Independent samples of 20 out of 40 overlap by ~10 in expectation. *)
  let k = Estimate.distinct_keys ~d1:20 ~d2:20 ~overlap:10 in
  checkb "estimate near truth" true (Float.abs (k -. 40.) < 2.5)

let test_estimate_disjoint () =
  checkb "disjoint samples give a large population" true
    (Estimate.distinct_keys ~d1:10 ~d2:10 ~overlap:0 > 100.);
  checkb "disjoint samples imply many replicas" true
    (Estimate.replicas ~n_min:5 ~d1:10 ~d2:10 ~overlap:0 > 5.)

let test_estimate_invalid () =
  Alcotest.check_raises "overlap too large" (Invalid_argument "Estimate: overlap exceeds set size")
    (fun () -> ignore (Estimate.distinct_keys ~d1:3 ~d2:3 ~overlap:4))

let test_estimate_statistical () =
  (* Simulate the paper's setting: K keys each replicated n_min times over r
     peers; the pairwise estimate should recover r on average. *)
  let rng = Rng.create ~seed:1 in
  let k = 200 and n_min = 5 and r = 20 in
  let acc = ref 0. in
  let reps = 200 in
  for _ = 1 to reps do
    let holder () =
      (* each key copy lands on a uniform peer; a peer's key set is the set
         of keys with at least one copy on it *)
      let mine = Hashtbl.create 64 in
      for key = 0 to k - 1 do
        for _ = 1 to n_min do
          if Rng.int rng r = 0 then Hashtbl.replace mine key ()
        done
      done;
      mine
    in
    let a = holder () and b = holder () in
    let overlap = Hashtbl.fold (fun key () acc -> if Hashtbl.mem b key then acc + 1 else acc) a 0 in
    acc :=
      !acc
      +. Estimate.replicas ~n_min ~d1:(Hashtbl.length a) ~d2:(Hashtbl.length b) ~overlap
  done;
  let mean = !acc /. float_of_int reps in
  checkb "replica estimate near the true count" true (Float.abs (mean -. 20.) < 4.)

let test_load_fraction () =
  let keys = [ Key.of_float 0.1; Key.of_float 0.2; Key.of_float 0.8 ] in
  close "two of three in the left half" (2. /. 3.) (Estimate.load_fraction keys ~level:0);
  close "empty list defaults to 1/2" 0.5 (Estimate.load_fraction [] ~level:0)

(* --- Round --------------------------------------------------------------- *)

let run_round ?(peers = 128) ?(seed = 2) ?(spec = Distribution.Uniform) () =
  let rng = Rng.create ~seed in
  Round.run rng (Round.default_params ~peers) ~spec

let test_round_completes () =
  let o = run_round () in
  checkb "finished before the safety bound" true (o.Round.rounds < 500);
  checkb "performed work" true (o.Round.splits > 0 && o.Round.merges > 0)

let test_round_no_data_loss () =
  let rng = Rng.create ~seed:3 in
  let params = Round.default_params ~peers:128 in
  let assignments =
    Distribution.assign_to_peers rng Distribution.Uniform ~peers:128 ~keys_per_peer:10
  in
  let o = Round.run_with_keys rng params ~assignments in
  (* Every original key must survive somewhere in the overlay. *)
  let held = Hashtbl.create 1024 in
  for i = 0 to Overlay.size o.Round.overlay - 1 do
    List.iter (fun k -> Hashtbl.replace held (Key.to_int k) ())
      (Node.keys (Overlay.node o.Round.overlay i))
  done;
  Array.iter
    (Array.iter (fun k ->
         if not (Hashtbl.mem held (Key.to_int k)) then
           Alcotest.failf "key %s lost" (Key.to_hex k)))
    assignments

let test_round_integrity () =
  let o = run_round ~seed:4 () in
  (* A handful of stale levels can remain where a believed-empty side was
     colonized late; they must stay marginal (< 2% of peers). *)
  checkb "routing tables consistent" true
    (Overlay.integrity_errors o.Round.overlay <= Overlay.size o.Round.overlay / 50)

let test_round_stores_match_paths () =
  let o = run_round ~seed:5 () in
  for i = 0 to Overlay.size o.Round.overlay - 1 do
    let n = Overlay.node o.Round.overlay i in
    List.iter
      (fun k ->
        if not (Node.responsible_for n k) then
          Alcotest.failf "peer %d stores key outside its partition" i)
      (Node.keys n)
  done

let test_round_replication_quality () =
  let o = run_round ~seed:6 () in
  let s = Overlay.stats o.Round.overlay in
  checkb "multiple partitions formed" true (s.Overlay.partitions > 8);
  checkb "replication near n_min" true
    (s.Overlay.mean_replication > 2. && s.Overlay.mean_replication < 15.)

let test_round_deviation_range () =
  let o = run_round ~seed:7 () in
  checkb "deviation sane" true (o.Round.deviation > 0. && o.Round.deviation < 1.2)

let test_round_searchable () =
  (* The constructed overlay must answer queries end to end. *)
  let o = run_round ~seed:8 () in
  let rng = Rng.create ~seed:88 in
  let keys =
    Array.concat
      (List.init (Overlay.size o.Round.overlay) (fun i ->
           Array.of_list (Node.keys (Overlay.node o.Round.overlay i))))
  in
  let stats = Pgrid_query.Query.lookup_batch rng o.Round.overlay ~keys ~count:200 in
  checkb "nearly all lookups route" true
    (float_of_int stats.Pgrid_query.Query.routed > 0.95 *. 200.);
  checkb "routed lookups find data" true
    (float_of_int stats.Pgrid_query.Query.found
    >= 0.95 *. float_of_int stats.Pgrid_query.Query.routed)

let test_round_skew_still_works () =
  let o = run_round ~seed:9 ~spec:Distribution.paper_normal () in
  checkb "terminates on skew" true (o.Round.rounds < 500);
  checkb "integrity on skew" true
    (Overlay.integrity_errors o.Round.overlay <= Overlay.size o.Round.overlay / 10)

let test_round_interactions_scale () =
  let small = run_round ~peers:64 ~seed:10 () in
  let large = run_round ~peers:256 ~seed:10 () in
  (* Per-peer interactions grow slowly (log-ish), not linearly. *)
  let per_small = Round.interactions_per_peer small in
  let per_large = Round.interactions_per_peer large in
  checkb "graceful growth" true (per_large < 3. *. per_small)

let test_round_invalid () =
  let rng = Rng.create ~seed:11 in
  Alcotest.check_raises "assignment mismatch"
    (Invalid_argument "Round.run_with_keys: one key set per peer required") (fun () ->
      ignore
        (Round.run_with_keys rng (Round.default_params ~peers:4) ~assignments:[||]))

(* --- Construction goldens ---------------------------------------------------- *)

(* What a construction built, in one line: its counters, a digest of
   every peer's path, replica list, routing table and store keys, and the
   next draw of the run's generator.  The keys are listed in store
   iteration order, unsorted: hand-overs route keys in that order, one
   reference draw per hop, so a changed traversal order must fail here
   even when the sorted key sets agree. *)
let construction_fingerprint rng (o : Round.outcome) =
  let b = Buffer.create 65536 in
  let ints l = List.iter (fun i -> Buffer.add_string b (string_of_int i ^ ",")) l in
  let overlay = o.Round.overlay in
  for i = 0 to Overlay.size overlay - 1 do
    let n = Overlay.node overlay i in
    Buffer.add_string b
      (Printf.sprintf "%d %s r:" i (Pgrid_keyspace.Path.to_string n.Node.path));
    ints (Node.replica_list n);
    for level = 0 to Pgrid_keyspace.Path.length n.Node.path - 1 do
      Buffer.add_string b " l:";
      ints (Node.refs_at n ~level)
    done;
    Buffer.add_string b " k:";
    ints (List.map Key.to_int (Node.keys n));
    Buffer.add_char b '\n'
  done;
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%d peers=%s next=%d" o.Round.rounds
    o.Round.interactions o.Round.keys_moved o.Round.replication_keys o.Round.splits
    o.Round.follows o.Round.merges o.Round.refer_steps
    (Digest.to_hex (Digest.string (Buffer.contents b)))
    (Rng.int rng 1_000_000_000)

let construction_golden name ~seed ~spec expected =
  Alcotest.test_case ("construction golden: " ^ name) `Quick (fun () ->
      let rng = Rng.create ~seed in
      let params = Round.default_params ~peers:500 in
      let assignments =
        Distribution.assign_to_peers rng spec ~peers:500 ~keys_per_peer:10
      in
      let o = Round.run_with_keys rng params ~assignments in
      Alcotest.(check string) name expected (construction_fingerprint rng o))

(* Recorded before replicate meetings skipped no-op copies and path
   changes stopped recounting whole stores. *)
let golden_uniform =
  construction_golden "uniform" ~seed:2005 ~spec:Distribution.Uniform
    "16/12932/108432/25000/826/1797/2066/8242 peers=40edc75450f07764dfb454642ff31975 \
     next=134300011"

let golden_skewed =
  construction_golden "skewed" ~seed:830 ~spec:Distribution.paper_normal
    "27/18831/105494/25000/653/2956/2836/10563 peers=a8e4ed62fc10ef656e9a202188ac61ce \
     next=923427429"

(* --- Sequential ------------------------------------------------------------ *)

let test_sequential_builds () =
  let rng = Rng.create ~seed:12 in
  let o = Sequential.run rng ~peers:128 ~spec:Distribution.Uniform in
  let s = Overlay.stats o.Sequential.overlay in
  checkb "partitions formed" true (s.Overlay.partitions > 3);
  checkb "messages counted" true (o.Sequential.messages > 0);
  checkb "latency below messages" true (o.Sequential.serial_latency <= o.Sequential.messages)

let test_sequential_no_data_loss () =
  let rng = Rng.create ~seed:13 in
  let o = Sequential.run rng ~peers:64 ~spec:Distribution.Uniform in
  let total_stored =
    List.init (Overlay.size o.Sequential.overlay) (fun i ->
        Node.key_count (Overlay.node o.Sequential.overlay i))
    |> List.fold_left ( + ) 0
  in
  checkb "keys present" true (total_stored >= 64 * 10 / 2)

let test_sequential_latency_grows_linearly () =
  let latency n =
    let rng = Rng.create ~seed:14 in
    (Sequential.run rng ~peers:n ~spec:Distribution.Uniform)
      .Sequential.serial_latency
  in
  let l128 = latency 128 and l512 = latency 512 in
  checkb "serialized latency grows ~linearly" true (l512 > 3 * l128)

(* --- Merge ------------------------------------------------------------------ *)

let test_merge_overlays () =
  let params = Round.default_params ~peers:64 in
  let a = Round.run (Rng.create ~seed:31) params ~spec:Distribution.Uniform in
  let b = Round.run (Rng.create ~seed:32) params ~spec:Distribution.Uniform in
  let config =
    {
      Pgrid_construction.Engine.n_min = params.Round.n_min;
      d_max = params.Round.d_max;
      max_fruitless = params.Round.max_fruitless;
      refer_hops = params.Round.refer_hops;
      mode = Pgrid_construction.Engine.Theory;
    }
  in
  let m =
    Pgrid_construction.Merge.overlays (Rng.create ~seed:33) ~config ~max_rounds:500
      a.Round.overlay b.Round.overlay
  in
  checki "population fused" 128 (Overlay.size m.Pgrid_construction.Merge.overlay);
  checkb "converged" true (m.Pgrid_construction.Merge.rounds < 500);
  (* Every key of both inputs survives the merge. *)
  let held = Hashtbl.create 2048 in
  for i = 0 to 127 do
    List.iter
      (fun k -> Hashtbl.replace held (Key.to_int k) ())
      (Node.keys (Overlay.node m.Pgrid_construction.Merge.overlay i))
  done;
  let check_source o =
    for i = 0 to Overlay.size o - 1 do
      List.iter
        (fun k ->
          if not (Hashtbl.mem held (Key.to_int k)) then
            Alcotest.failf "key %s lost in merge" (Key.to_hex k))
        (Node.keys (Overlay.node o i))
    done
  in
  check_source a.Round.overlay;
  check_source b.Round.overlay;
  (* The fused overlay answers queries. *)
  let keys = Array.of_list (Hashtbl.fold (fun k () acc -> Pgrid_keyspace.Key.of_int k :: acc) held []) in
  let s = Pgrid_query.Query.lookup_batch (Rng.create ~seed:34) m.Pgrid_construction.Merge.overlay ~keys ~count:200 in
  checkb "merged overlay routes" true (s.Pgrid_query.Query.routed > 190);
  checkb "deviation sane" true (m.Pgrid_construction.Merge.deviation < 1.2)

(* --- Net engine -------------------------------------------------------------- *)

let fast_phases =
  {
    Net_engine.join_end = 60.;
    replicate_start = 30.;
    construct_start = 60.;
    construct_end = 240.;
    query_start = 240.;
    churn_start = 300.;
    end_time = 360.;
  }

let fast_params peers =
  {
    (Net_engine.default_params ~peers) with
    Net_engine.phases = fast_phases;
    initiate_mean = 2.;
    query_min = 5.;
    query_max = 10.;
    ping_interval = 10.;
    churn =
      Some
        {
          Pgrid_simnet.Churn.start = 300.;
          stop = 360.;
          off_min = 5.;
          off_max = 15.;
          period_min = 10.;
          period_max = 30.;
        };
  }

let run_net ?(peers = 48) ?(seed = 15) () =
  let rng = Rng.create ~seed in
  Net_engine.run rng (fast_params peers) ~spec:Distribution.Uniform

let net_outcome = lazy (run_net ())

let test_net_queries_succeed () =
  let o = Lazy.force net_outcome in
  let qs = o.Net_engine.query_stats in
  checkb "queries issued" true (qs.Net_engine.issued > 50);
  checkb "high success rate" true
    (float_of_int qs.Net_engine.succeeded
    > 0.85 *. float_of_int qs.Net_engine.issued)

let test_net_population_series () =
  let o = Lazy.force net_outcome in
  checkb "series sampled" true (List.length o.Net_engine.online_series > 4);
  let peak = List.fold_left (fun m (_, c) -> max m c) 0 o.Net_engine.online_series in
  checki "everyone joined at the peak" 48 peak;
  (* During churn the population must dip below the peak. *)
  let churn_min =
    List.fold_left
      (fun m (t, c) -> if t >= 5.5 then min m c else m)
      max_int o.Net_engine.online_series
  in
  checkb "churn dips" true (churn_min < 48)

let test_net_bandwidth_shape () =
  let o = Lazy.force net_outcome in
  checkb "maintenance traffic recorded" true (o.Net_engine.maintenance_bw <> []);
  checkb "query traffic recorded" true (o.Net_engine.query_bw <> []);
  (* Query traffic must only appear after the query phase starts (minute 4). *)
  List.iter
    (fun (t, bps) -> if bps > 0. then checkb "query traffic timing" true (t >= 3.9))
    o.Net_engine.query_bw

let test_net_overlay_built () =
  let o = Lazy.force net_outcome in
  let s = o.Net_engine.stats in
  checkb "partitioned" true (s.Overlay.partitions > 2);
  checkb "deviation computed" true (o.Net_engine.deviation >= 0.);
  checkb "peers back online for evaluation" true (s.Overlay.peers = 48)

let test_net_latency_series () =
  let o = Lazy.force net_outcome in
  checkb "latency buckets exist" true (o.Net_engine.latency_series <> []);
  List.iter
    (fun (_, mean, std) ->
      checkb "positive latency" true (mean > 0.);
      checkb "stddev non-negative" true (std >= 0.))
    o.Net_engine.latency_series

let suite =
  [
    Alcotest.test_case "estimate synced anchor" `Quick test_estimate_synced_anchor;
    Alcotest.test_case "estimate near truth" `Quick test_estimate_unbiased_direction;
    Alcotest.test_case "estimate disjoint" `Quick test_estimate_disjoint;
    Alcotest.test_case "estimate invalid" `Quick test_estimate_invalid;
    Alcotest.test_case "estimate statistical" `Quick test_estimate_statistical;
    Alcotest.test_case "load fraction" `Quick test_load_fraction;
    Alcotest.test_case "round completes" `Quick test_round_completes;
    Alcotest.test_case "round preserves data" `Quick test_round_no_data_loss;
    Alcotest.test_case "round routing integrity" `Quick test_round_integrity;
    Alcotest.test_case "round stores match paths" `Quick test_round_stores_match_paths;
    Alcotest.test_case "round replication quality" `Quick test_round_replication_quality;
    Alcotest.test_case "round deviation range" `Quick test_round_deviation_range;
    Alcotest.test_case "round searchable" `Quick test_round_searchable;
    Alcotest.test_case "round handles skew" `Quick test_round_skew_still_works;
    Alcotest.test_case "round interaction scaling" `Quick test_round_interactions_scale;
    Alcotest.test_case "round invalid args" `Quick test_round_invalid;
    golden_uniform;
    golden_skewed;
    Alcotest.test_case "sequential builds" `Quick test_sequential_builds;
    Alcotest.test_case "sequential preserves data" `Quick test_sequential_no_data_loss;
    Alcotest.test_case "sequential latency growth" `Quick test_sequential_latency_grows_linearly;
    Alcotest.test_case "merge overlays" `Quick test_merge_overlays;
    Alcotest.test_case "net queries succeed" `Quick test_net_queries_succeed;
    Alcotest.test_case "net population series" `Quick test_net_population_series;
    Alcotest.test_case "net bandwidth shape" `Quick test_net_bandwidth_shape;
    Alcotest.test_case "net overlay built" `Quick test_net_overlay_built;
    Alcotest.test_case "net latency series" `Quick test_net_latency_series;
  ]
