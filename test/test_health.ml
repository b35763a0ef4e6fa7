(* Tests for Pgrid_core.Health (typed invariant checker) and the
   self-healing maintenance daemon of Pgrid_core.Maintenance. *)

module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Distribution = Pgrid_workload.Distribution
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Builder = Pgrid_core.Builder
module Health = Pgrid_core.Health
module Maintenance = Pgrid_core.Maintenance
module Sim = Pgrid_simnet.Sim
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event
module Metrics = Pgrid_telemetry.Metrics

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let build seed =
  let rng = Rng.create ~seed in
  let keys = Distribution.generate rng Distribution.Uniform ~n:1500 in
  let overlay =
    Builder.index rng ~peers:150 ~keys ~d_max:50 ~n_min:5 ~refs_per_level:3
  in
  (overlay, keys)

let members overlay path =
  let acc = ref [] in
  for i = Overlay.size overlay - 1 downto 0 do
    if Path.equal (Overlay.node overlay i).Node.path path then acc := i :: !acc
  done;
  !acc

(* --- Health.check ------------------------------------------------------- *)

let test_pristine_overlay () =
  let overlay, keys = build 1 in
  let r = Health.check ~keys ~n_min:5 overlay in
  checki "no ref violations" 0 r.Health.ref_integrity;
  checki "no dark partitions" 0 r.Health.trie_incomplete;
  checki "nothing at risk" 0 r.Health.at_risk;
  checki "nothing lost" 0 r.Health.lost;
  checki "all online" 150 r.Health.online;
  checkb "score high" true (r.Health.score > 0.9);
  checkb "tracked keys cover the workload" true (r.Health.tracked_keys > 0)

let test_dark_partition_detected () =
  let overlay, keys = build 2 in
  let path = (Overlay.node overlay 0).Node.path in
  List.iter
    (fun i -> Node.set_online (Overlay.node overlay i) false)
    (members overlay path);
  let r = Health.check ~keys ~n_min:5 overlay in
  checki "one dark partition" 1 r.Health.trie_incomplete;
  checkb "its keys are at risk" true (r.Health.at_risk > 0);
  checkb "violation names the path" true
    (List.exists
       (function
         | Health.Trie_incomplete { prefix } -> Path.equal prefix path
         | _ -> false)
       r.Health.violations);
  let pristine, pkeys = build 2 in
  checkb "score dropped" true
    (r.Health.score < Health.score ~keys:pkeys ~n_min:5 pristine)

let test_under_replicated_detected () =
  let overlay, keys = build 3 in
  let path = (Overlay.node overlay 0).Node.path in
  (match members overlay path with
  | _keep :: rest ->
    List.iter (fun i -> Node.set_online (Overlay.node overlay i) false) rest
  | [] -> Alcotest.fail "empty partition");
  let r = Health.check ~keys ~n_min:5 overlay in
  checkb "under-replication reported for the thinned partition" true
    (List.exists
       (function
         | Health.Under_replicated { path = p; online; required } ->
           Path.equal p path && online = 1 && required = 5
         | _ -> false)
       r.Health.violations)

let test_lost_key_detected () =
  let overlay, keys = build 4 in
  let victim = keys.(0) in
  for i = 0 to Overlay.size overlay - 1 do
    let n = Overlay.node overlay i in
    Node.remove_key n victim
  done;
  let r = Health.check ~keys ~n_min:5 overlay in
  checkb "loss detected" true (r.Health.lost >= 1);
  checkb "the victim is named" true
    (List.exists
       (function
         | Health.Data_lost { key } -> Key.compare key victim = 0
         | _ -> false)
       r.Health.violations)

let test_emit_updates_gauges () =
  let overlay, keys = build 5 in
  Node.set_online (Overlay.node overlay 0) false;
  let tel = Telemetry.create () in
  let r = Health.check ~keys ~n_min:5 overlay in
  Health.emit ~telemetry:tel r;
  let report_tag =
    Event.tag
      (Event.Health_report
         {
           ref_integrity = 0;
           trie_incomplete = 0;
           under_replicated = 0;
           at_risk = 0;
           torn = 0;
           lost = 0;
           score = 1.;
         })
  in
  checki "one health report recorded" 1 (Telemetry.count_of_tag tel report_tag);
  let g name = Metrics.gauge_value (Metrics.gauge (Telemetry.metrics tel) name) in
  checkb "score gauge set" true (g "health.score" = r.Health.score);
  checkb "lost gauge set" true (g "data.lost_keys" = float_of_int r.Health.lost);
  Telemetry.close tel

(* --- Maintenance daemon -------------------------------------------------- *)

let install sim overlay keys ~seed ~until cfg =
  Maintenance.install_daemon ~keys:(fun () -> keys) sim (Rng.create ~seed) overlay ~until cfg

let test_daemon_resyncs_replicas () =
  let overlay, keys = build 6 in
  (* Manufacture replica divergence: some member forgets a key that a
     mate still holds (so the pairwise exchange can restore it). *)
  let pick () =
    let rec scan i =
      if i >= Overlay.size overlay then Alcotest.fail "no replicated key found"
      else begin
        let n = Overlay.node overlay i in
        let mate_has k =
          List.exists
            (fun rid -> Node.has_key (Overlay.node overlay rid) k)
            (Node.replica_list n)
        in
        match List.filter mate_has (Node.keys n) with
        | k :: _ -> (n, k)
        | [] -> scan (i + 1)
      end
    in
    scan 0
  in
  let n, k = pick () in
  Node.remove_key n k;
  let sim = Sim.create () in
  let stats =
    install sim overlay keys ~seed:9 ~until:300.
      (Maintenance.default_daemon_config ~n_min:5)
  in
  Sim.run sim;
  checkb "upkeep ticks ran" true (stats.Maintenance.ticks > 0);
  checkb "anti-entropy copied the key back" true (Node.has_key n k)

let test_daemon_rescues_dark_partition () =
  let overlay, keys = build 7 in
  (* A whole partition rides out a long churn cycle: every member
     offline, stores intact. *)
  let path = (Overlay.node overlay 0).Node.path in
  List.iter
    (fun i -> Node.set_online (Overlay.node overlay i) false)
    (members overlay path);
  let r0 = Health.check ~keys ~n_min:5 overlay in
  checki "partition dark before" 1 r0.Health.trie_incomplete;
  let sim = Sim.create () in
  let stats =
    install sim overlay keys ~seed:10 ~until:300.
      (Maintenance.default_daemon_config ~n_min:5)
  in
  Sim.run sim;
  let r1 = Health.check ~keys ~n_min:5 overlay in
  checkb "emergency re-replication fired" true (stats.Maintenance.rereplications > 0);
  checki "trie coverage restored" 0 r1.Health.trie_incomplete;
  checki "no data lost" 0 r1.Health.lost;
  checki "no keys left at risk" 0 r1.Health.at_risk

let test_daemon_deterministic () =
  let run () =
    let overlay, keys = build 8 in
    List.iter
      (fun i -> Node.set_online (Overlay.node overlay i) false)
      (members overlay (Overlay.node overlay 3).Node.path);
    let sim = Sim.create () in
    let stats =
      install sim overlay keys ~seed:11 ~until:600.
        (Maintenance.default_daemon_config ~n_min:5)
    in
    Sim.run sim;
    ( stats.Maintenance.ticks,
      stats.Maintenance.exchanges,
      stats.Maintenance.keys_synced,
      stats.Maintenance.levels_refreshed,
      stats.Maintenance.rereplications,
      Health.score ~keys ~n_min:5 overlay )
  in
  checkb "same seed, same daemon trajectory" true (run () = run ())

let suite =
  [
    Alcotest.test_case "pristine overlay" `Quick test_pristine_overlay;
    Alcotest.test_case "dark partition detected" `Quick test_dark_partition_detected;
    Alcotest.test_case "under-replication detected" `Quick
      test_under_replicated_detected;
    Alcotest.test_case "lost key detected" `Quick test_lost_key_detected;
    Alcotest.test_case "emit updates gauges" `Quick test_emit_updates_gauges;
    Alcotest.test_case "daemon resyncs replicas" `Quick test_daemon_resyncs_replicas;
    Alcotest.test_case "daemon rescues dark partition" `Quick
      test_daemon_rescues_dark_partition;
    Alcotest.test_case "daemon deterministic" `Quick test_daemon_deterministic;
  ]
