(* Tests for Pgrid_core.Maintenance: graceful leaves, joins, routing
   repair and replication rebalancing. *)

module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Distribution = Pgrid_workload.Distribution
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Builder = Pgrid_core.Builder
module Maintenance = Pgrid_core.Maintenance
module Sim = Pgrid_simnet.Sim

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let build seed =
  let rng = Rng.create ~seed in
  let keys = Distribution.generate rng Distribution.Uniform ~n:1500 in
  let overlay = Builder.index rng ~peers:150 ~keys ~d_max:50 ~n_min:5 ~refs_per_level:3 in
  (overlay, keys, rng)

let test_leave_preserves_payloads () =
  let overlay, _, _ = build 1 in
  let fresh = Key.of_float 0.31337 in
  ignore (Overlay.insert overlay ~from:0 fresh "precious");
  (* The responsible peer leaves; its replicas must still answer. *)
  let r = Overlay.search overlay ~from:5 fresh in
  let owner = Option.get r.Overlay.responsible in
  let pushed = Maintenance.leave (Rng.create ~seed:77) overlay owner in
  checkb "leave reported work or replicas already had it" true (pushed >= 0);
  checkb "owner offline" true (not (Overlay.node overlay owner).Node.online);
  let r2 = Overlay.search overlay ~from:5 fresh in
  (match r2.Overlay.responsible with
  | Some id ->
    checkb "new responsible differs" true (id <> owner);
    checkb "payload survived" true (List.mem "precious" r2.Overlay.payloads)
  | None -> Alcotest.fail "search failed after one graceful leave")

let test_leave_offline_noop () =
  let overlay, _, _ = build 2 in
  Node.set_online (Overlay.node overlay 3) false;
  checki "no-op on offline node" 0 (Maintenance.leave (Rng.create ~seed:78) overlay 3)

let test_join_restores_peer () =
  let overlay, _, rng = build 3 in
  ignore (Maintenance.leave rng overlay 10);
  match Maintenance.join rng overlay 10 ~entry:0 with
  | None -> Alcotest.fail "join found no host"
  | Some hops ->
    checkb "hops counted" true (hops >= 0);
    let n = Overlay.node overlay 10 in
    checkb "online again" true n.Node.online;
    checkb "adopted a real partition" true (Path.length n.Node.path > 0);
    checkb "knows replicas" true (Node.replica_count n > 0);
    (* The group knows the newcomer back. *)
    List.iter
      (fun rid ->
        let r = Overlay.node overlay rid in
        if r.Node.online then
          checkb "registered" true (List.mem 10 (Node.replica_list r)))
      (Node.replica_list n);
    (* Store matches the adopted partition. *)
    List.iter
      (fun k -> checkb "store clean" true (Node.responsible_for n k))
      (Node.keys n)

let test_join_rejects_online () =
  let overlay, _, rng = build 4 in
  Alcotest.check_raises "online join rejected"
    (Invalid_argument "Maintenance.join: node already online") (fun () ->
      ignore (Maintenance.join rng overlay 0 ~entry:1))

let test_repair_prunes_and_fills () =
  let overlay, keys, rng = build 5 in
  (* Hard failures (no graceful handover). *)
  let victims = Rng.sample_without_replacement rng ~k:45 ~n:150 in
  Array.iter (fun id -> Node.set_online (Overlay.node overlay id) false) victims;
  let report = Maintenance.repair rng overlay ~redundancy:2 in
  checkb "dead refs pruned" true (report.Maintenance.dead_refs_dropped > 0);
  (* After repair, no online node may keep a dead reference. *)
  for i = 0 to 149 do
    let n = Overlay.node overlay i in
    if n.Node.online then
      for level = 0 to Path.length n.Node.path - 1 do
        List.iter
          (fun r -> checkb "ref alive" true (Overlay.node overlay r).Node.online)
          (Node.refs_at n ~level)
      done
  done;
  (* Searches work at healthy rates again (>92%; the exact count is
     sensitive to which redundant reference each draw lands on). *)
  let s = Pgrid_query.Query.lookup_batch rng overlay ~keys ~count:200 in
  checkb "searches recover" true (s.Pgrid_query.Query.routed > 185)

let test_rebalance_reduces_spread () =
  let overlay, _, rng = build 6 in
  (* Manufacture imbalance: move a third of the population onto one
     partition. *)
  let template = Overlay.node overlay 0 in
  let target_path = template.Node.path in
  for i = 1 to 50 do
    let n = Overlay.node overlay i in
    if not (Path.equal n.Node.path target_path) then begin
      Node.set_path n target_path;
      ignore (Node.drop_keys_outside n target_path);
      (* Adopt consistent routing for the new partition too. *)
      Node.reset_refs n ~capacity:(Path.length target_path);
      for level = 0 to Path.length target_path - 1 do
        List.iter
          (fun r -> if r <> i then Node.add_ref n ~level r)
          (Node.refs_at template ~level)
      done
    end
  done;
  let before =
    let census = Hashtbl.create 64 in
    for i = 0 to 149 do
      let p = Path.to_string (Overlay.node overlay i).Node.path in
      Hashtbl.replace census p (1 + Option.value ~default:0 (Hashtbl.find_opt census p))
    done;
    Hashtbl.fold (fun _ c acc -> max c acc) census 0
  in
  checkb "imbalance manufactured" true (before > 20);
  (* The manual moves above left stale third-party references behind;
     correction-on-use cleans them, as a deployment would. *)
  ignore (Maintenance.repair rng overlay ~redundancy:2);
  let report = Maintenance.rebalance rng overlay ~n_min:5 ~max_rounds:300 in
  checkb "migrations happened" true (report.Maintenance.migrations > 10);
  checkb "spread bounded" true (report.Maintenance.final_spread <= 3.);
  checki "no routing violations introduced" 0 (Overlay.integrity_errors overlay)

let test_rebalance_idempotent_when_balanced () =
  let overlay, _, rng = build 7 in
  let report = Maintenance.rebalance rng overlay ~n_min:5 ~max_rounds:50 in
  (* The builder output is already balanced: nothing (or nearly nothing)
     should move. *)
  checkb "few migrations on balanced overlay" true (report.Maintenance.migrations <= 5)

let test_leave_join_cycle_stability () =
  (* Forty leave/join cycles with periodic repair (the maintenance model's
     proactive pass): the overlay must stay fully routable.  Without the
     repair passes redundancy decays and a few percent of searches start
     failing — which is exactly why the maintenance model needs them. *)
  let overlay, keys, rng = build 8 in
  for cycle = 1 to 40 do
    let id = Rng.int rng 150 in
    if (Overlay.node overlay id).Node.online then begin
      ignore (Maintenance.leave rng overlay id);
      ignore
        (Maintenance.join rng overlay id
           ~entry:
             (let rec pick () =
                let e = Rng.int rng 150 in
                if e <> id && (Overlay.node overlay e).Node.online then e else pick ()
              in
              pick ()))
    end;
    if cycle mod 10 = 0 then ignore (Maintenance.repair rng overlay ~redundancy:3)
  done;
  ignore (Maintenance.repair rng overlay ~redundancy:3);
  let s = Pgrid_query.Query.lookup_batch rng overlay ~keys ~count:200 in
  checkb "overlay survives churn cycles" true (s.Pgrid_query.Query.routed > 195)

let test_repair_rebalance_deterministic () =
  (* Identical seeds must yield identical repair/rebalance trajectories
     AND identical final overlays — the iteration order of both passes
     is part of the reproducibility contract (the survival experiment
     depends on it). *)
  let run () =
    let overlay, _, _ = build 21 in
    let rng = Rng.create ~seed:99 in
    let victims = Rng.sample_without_replacement rng ~k:40 ~n:150 in
    Array.iter (fun id -> Node.set_online (Overlay.node overlay id) false) victims;
    let rep = Maintenance.repair rng overlay ~redundancy:2 in
    let reb = Maintenance.rebalance rng overlay ~n_min:5 ~max_rounds:100 in
    let fingerprint =
      String.concat ";"
        (List.init 150 (fun i ->
             let n = Overlay.node overlay i in
             Printf.sprintf "%d:%s:%d:%b" i
               (Path.to_string n.Node.path)
               (Node.key_count n) n.Node.online))
    in
    ( rep.Maintenance.dead_refs_dropped,
      rep.Maintenance.refs_added,
      reb.Maintenance.migrations,
      reb.Maintenance.final_spread,
      fingerprint )
  in
  checkb "same seed, same trajectory" true (run () = run ())

let qcheck_churn_invariants =
  QCheck.Test.make ~name:"random churn keeps partitions alive and refs valid" ~count:8
    QCheck.small_signed_int (fun seed ->
      let overlay, _, rng = build (1000 + abs seed) in
      (* A random sequence of leaves, joins and repairs. *)
      for _ = 1 to 30 do
        let id = Rng.int rng 150 in
        let n = Overlay.node overlay id in
        if n.Node.online then ignore (Maintenance.leave rng overlay id)
        else begin
          let rec entry () =
            let e = Rng.int rng 150 in
            if e <> id && (Overlay.node overlay e).Node.online then e else entry ()
          in
          ignore (Maintenance.join rng overlay id ~entry:(entry ()))
        end
      done;
      ignore (Maintenance.repair rng overlay ~redundancy:2);
      (* Invariant 1: every partition that held keys still has an online
         member covering it (no dead partitions). *)
      let covered = ref true in
      for i = 0 to 149 do
        let n = Overlay.node overlay i in
        if n.Node.online then
          List.iter
            (fun k ->
              let someone =
                let rec scan j =
                  if j >= 150 then false
                  else begin
                    let m = Overlay.node overlay j in
                    (m.Node.online && Node.responsible_for m k) || scan (j + 1)
                  end
                in
                scan 0
              in
              if not someone then covered := false)
            (Node.keys n)
      done;
      (* Invariant 2: no online peer holds a dead reference after repair. *)
      let refs_alive = ref true in
      for i = 0 to 149 do
        let n = Overlay.node overlay i in
        if n.Node.online then
          for level = 0 to Path.length n.Node.path - 1 do
            List.iter
              (fun r ->
                if not (Overlay.node overlay r).Node.online then refs_alive := false)
              (Node.refs_at n ~level)
          done
      done;
      !covered && !refs_alive)

(* Every timing field rejects NaN (and its usual out-of-range value)
   before anything is scheduled. *)
let test_daemon_rejects_bad_config () =
  let overlay = Overlay.create (Rng.create ~seed:1) ~n:4 in
  let base = Maintenance.default_daemon_config ~n_min:2 in
  let sim = Sim.create () in
  let rejects what cfg =
    (match Maintenance.install_daemon sim (Rng.create ~seed:2) overlay ~until:1. cfg with
    | _ -> Alcotest.failf "install_daemon accepted %s" what
    | exception Invalid_argument _ -> ());
    checki (what ^ ": nothing scheduled") 0 (Sim.pending sim)
  in
  rejects "period 0" { base with Maintenance.period = 0. };
  rejects "period nan" { base with Maintenance.period = Float.nan };
  rejects "monitor_period nan" { base with Maintenance.monitor_period = Float.nan };
  rejects "reconcile gc_after nan" { base with Maintenance.reconcile = Some Float.nan }

let suite =
  [
    Alcotest.test_case "leave preserves payloads" `Quick test_leave_preserves_payloads;
    Alcotest.test_case "leave offline no-op" `Quick test_leave_offline_noop;
    Alcotest.test_case "join restores peer" `Quick test_join_restores_peer;
    Alcotest.test_case "join rejects online" `Quick test_join_rejects_online;
    Alcotest.test_case "repair prunes and fills" `Quick test_repair_prunes_and_fills;
    Alcotest.test_case "rebalance reduces spread" `Quick test_rebalance_reduces_spread;
    Alcotest.test_case "rebalance idempotent" `Quick test_rebalance_idempotent_when_balanced;
    Alcotest.test_case "leave/join cycles" `Quick test_leave_join_cycle_stability;
    Alcotest.test_case "repair/rebalance deterministic" `Quick
      test_repair_rebalance_deterministic;
    Alcotest.test_case "daemon rejects bad config" `Quick test_daemon_rejects_bad_config;
    QCheck_alcotest.to_alcotest qcheck_churn_invariants;
  ]
