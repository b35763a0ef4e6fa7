(* Tests for Pgrid_core.Txn (atomic multi-key writes, crash recovery)
   and its undo primitive Overlay.delete. *)

module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Distribution = Pgrid_workload.Distribution
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Balance = Pgrid_core.Balance
module Health = Pgrid_core.Health
module Txn = Pgrid_core.Txn
module Sim = Pgrid_simnet.Sim
module Round = Pgrid_construction.Round

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* A constructed overlay plus the sorted population of stored keys. *)
let build ?(peers = 96) seed =
  let rng = Rng.create ~seed in
  let built = Round.run rng (Round.default_params ~peers) ~spec:Distribution.Uniform in
  let overlay = built.Round.overlay in
  let keys =
    let tbl = Hashtbl.create 256 in
    for i = 0 to Overlay.size overlay - 1 do
      List.iter (fun k -> Hashtbl.replace tbl k ()) (Node.keys (Overlay.node overlay i))
    done;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl []
    |> List.sort Key.compare |> Array.of_list
  in
  (overlay, keys)

(* Peers (online or not) whose store holds [payload] under [key]. *)
let holders overlay key payload =
  let hs = ref [] in
  for i = 0 to Overlay.size overlay - 1 do
    let n = Overlay.node overlay i in
    if List.exists (( = ) payload) (Node.lookup n key) then hs := i :: !hs
  done;
  List.rev !hs

let first_online overlay =
  let rec go i = if (Overlay.node overlay i).Node.online then i else go (i + 1) in
  go 0

(* --- Overlay.delete ----------------------------------------------------- *)

let test_delete_drains_replicas () =
  let overlay, keys = build 21 in
  let k = keys.(7) in
  (* Insert and delete route from the same origin, so the delete lands on
     the same responsible peer and fans out over the same replica group
     the insert populated. *)
  ignore (Overlay.insert overlay ~from:0 k "doc-x");
  ignore (Overlay.insert overlay ~from:1 k "doc-y");
  let copies = List.length (holders overlay k "doc-x") in
  checkb "payload replicated before delete" true (copies >= 1);
  (match Overlay.delete overlay ~from:0 ~payload:"doc-x" k with
  | None -> Alcotest.fail "routed delete failed on a healthy overlay"
  | Some r -> checki "removed every copy the insert placed" copies r.Overlay.removed);
  checki "no copy of doc-x survives anywhere" 0 (List.length (holders overlay k "doc-x"));
  checkb "sibling posting under the same key untouched" true
    (List.length (holders overlay k "doc-y") >= 1)

let test_delete_last_key_keeps_routing () =
  let overlay, keys = build 22 in
  let k = keys.(3) in
  (match Overlay.delete overlay ~from:0 k with
  | None -> Alcotest.fail "routed delete failed"
  | Some r -> checkb "dropped at least one copy" true (r.Overlay.removed >= 1));
  (* The key is gone from every store, but the partition and its routing
     survive: searches still land on a responsible peer. *)
  for from = 0 to 15 do
    let r = Overlay.search overlay ~from k in
    checkb "still routes to a responsible peer" true (r.Overlay.responsible <> None);
    checkb "key really gone" false r.Overlay.key_present
  done;
  checki "no routing violations after emptying the key" 0
    (Overlay.integrity_errors overlay)

let test_delete_absent_is_noop () =
  let overlay, keys = build 23 in
  let k = keys.(11) in
  match Overlay.delete overlay ~from:4 ~payload:"never-inserted" k with
  | None -> Alcotest.fail "routed delete failed"
  | Some r -> checki "clean no-op" 0 r.Overlay.removed

let census_paths overlay =
  let tbl = Hashtbl.create 64 in
  for i = 0 to Overlay.size overlay - 1 do
    Hashtbl.replace tbl (Path.to_string (Overlay.node overlay i).Node.path) ()
  done;
  Hashtbl.length tbl

let test_delete_storm_drives_retraction () =
  (* Split a one-key-per-peer overlay finely, then delete almost all the
     data: the same balance pass that found nothing to retract before
     the storm must now merge the starved leaves back up. *)
  let rng = Rng.create ~seed:24 in
  let built =
    Round.run rng
      { (Round.default_params ~peers:192) with Round.keys_per_peer = 1; d_max = 50 }
      ~spec:Distribution.Uniform
  in
  let overlay = built.Round.overlay in
  let keys =
    let tbl = Hashtbl.create 256 in
    for i = 0 to Overlay.size overlay - 1 do
      List.iter (fun k -> Hashtbl.replace tbl k ()) (Node.keys (Overlay.node overlay i))
    done;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl []
    |> List.sort Key.compare |> Array.of_list
  in
  ignore (Balance.pass (Rng.create ~seed:25) overlay (Balance.default_config ~d_max:10 ~n_min:2));
  let cfg =
    {
      (Balance.default_config ~d_max:50 ~n_min:2) with
      Balance.retract_members = 12;
      retract_load = 2;
    }
  in
  (* Drain any naturally sparse pairs first, so post-storm retractions
     are attributable to the deletes alone. *)
  let rec quiesce budget =
    let r = Balance.pass (Rng.create ~seed:26) overlay cfg in
    if budget > 0 && r.Balance.retracts + r.Balance.splits > 0 then quiesce (budget - 1)
  in
  quiesce 10;
  let settled = Balance.pass (Rng.create ~seed:26) overlay cfg in
  checki "quiesced overlay resists retraction" 0 settled.Balance.retracts;
  let paths_before = census_paths overlay in
  Array.iteri
    (fun i k ->
      (* Keep a sparse survivor population so partitions empty out. *)
      if i mod 17 <> 0 then
        ignore (Overlay.delete overlay ~from:(first_online overlay) k))
    keys;
  let after = Balance.pass (Rng.create ~seed:26) overlay cfg in
  checkb "delete storm triggers retraction" true (after.Balance.retracts > 0);
  checkb "partition count shrank" true (census_paths overlay < paths_before);
  checki "routing stays sound" 0 (Overlay.integrity_errors overlay)

(* --- Txn: commit, abort, recovery --------------------------------------- *)

(* A manager over [overlay] driven by [sim], with every protocol message
   delayed [hop] seconds and gated by [admit ~phase ~dst] at delivery
   time (both endpoints must also be online, like a real network). *)
let manager ?(hop = 0.5) ?(admit = fun ~phase:_ ~dst:_ -> true) sim overlay =
  let transport =
    {
      Txn.send =
        (fun ~phase ~src ~dst ~deliver ->
          Sim.schedule sim ~delay:hop (fun () ->
              if
                (Overlay.node overlay src).Node.online
                && (Overlay.node overlay dst).Node.online
                && admit ~phase ~dst
              then deliver ()));
    }
  in
  Txn.create sim (Rng.create ~seed:99) overlay ~transport

let doc_ops keys payload = List.map (fun key -> Txn.Put { key; payload }) keys

let test_commit_applies_everywhere () =
  let overlay, keys = build 31 in
  let sim = Sim.create () in
  let t = manager sim overlay in
  let ks = [ keys.(2); keys.(40); keys.(77) ] in
  let id = Txn.submit t ~coordinator:(first_online overlay) (doc_ops ks "doc-okay") in
  Sim.run sim;
  Alcotest.check Alcotest.bool "committed" true (Txn.status t id = Some Txn.Committed);
  List.iter
    (fun k ->
      checkb "payload stored under every key" true (holders overlay k "doc-okay" <> []))
    ks;
  checki "all intents discharged" 0 (Txn.intent_count t);
  checki "nothing in flight" 0 (Txn.in_flight t);
  match Txn.settled_docs t with
  | [ (doc, dks, committed) ] ->
    Alcotest.check Alcotest.string "projected doc" "doc-okay" doc;
    checki "projected key count" (List.length ks) (Array.length dks);
    checkb "projected as committed" true committed
  | _ -> Alcotest.fail "expected exactly one settled document"

(* Every prepare's first ack cancels its timeout: once a lossless
   commit's messages have all landed, and before any timeout is due, the
   simulator holds no event. *)
let test_commit_leaves_no_timer () =
  let overlay, keys = build 31 in
  let sim = Sim.create () in
  let t = manager sim overlay in
  let id =
    Txn.submit t ~coordinator:(first_online overlay)
      (doc_ops [ keys.(2); keys.(40); keys.(77) ] "doc-timer")
  in
  (* Prepare lands at 0.5 s, its ack at 1 s, the commit push at 1.5 s. *)
  Sim.run_until sim ~time:(Txn.req_timeout -. 0.1);
  checkb "committed" true (Txn.status t id = Some Txn.Committed);
  checki "no pending event" 0 (Sim.pending sim)

(* Take every holder of [key]'s partition offline; return a peer that is
   still online to act from. *)
let darken_partition overlay key =
  let origin = ref None in
  for i = 0 to Overlay.size overlay - 1 do
    let n = Overlay.node overlay i in
    if Node.responsible_for n key then Node.set_online n false
    else if !origin = None && n.Node.online then origin := Some i
  done;
  Option.get !origin

let test_abort_leaves_no_residue () =
  let overlay, keys = build 32 in
  let sim = Sim.create () in
  let t = manager sim overlay in
  let dark = keys.(50) in
  let coordinator = darken_partition overlay dark in
  let live = [ keys.(1); keys.(20) ] in
  let id = Txn.submit t ~coordinator (doc_ops (dark :: live) "doc-doomed") in
  Sim.run sim;
  Alcotest.check Alcotest.bool "aborted" true (Txn.status t id = Some Txn.Aborted);
  (* The live keys were tentatively applied at prepare; the abort must
     have scrubbed every copy. *)
  List.iter
    (fun k -> checki "no residue under live keys" 0 (List.length (holders overlay k "doc-doomed")))
    (dark :: live);
  checki "all intents discharged" 0 (Txn.intent_count t);
  checkb "abort counted" true ((Txn.stats t).Txn.aborted >= 1)

let test_lost_commit_push_recovered () =
  (* The coordinator decides commit but every commit push is lost: the
     participants keep their intents until a recovery pass replays the
     durable decision. *)
  let overlay, keys = build 33 in
  let sim = Sim.create () in
  let lose_commits = ref true in
  let t =
    manager sim overlay ~admit:(fun ~phase ~dst:_ ->
        not (!lose_commits && phase = Txn.Commit))
  in
  let ks = [ keys.(5); keys.(60) ] in
  let id = Txn.submit t ~coordinator:(first_online overlay) (doc_ops ks "doc-limbo") in
  Sim.run sim;
  Alcotest.check Alcotest.bool "decision is commit" true
    (Txn.status t id = Some Txn.Committed);
  checkb "intents survive the lost pushes" true (Txn.intent_count t > 0);
  lose_commits := false;
  let resolved = Txn.recover_pass t in
  checkb "recovery resolved the orphans" true (resolved > 0);
  checki "log drained" 0 (Txn.intent_count t);
  List.iter
    (fun k -> checkb "document fully indexed" true (holders overlay k "doc-limbo" <> []))
    ks;
  checkb "recovered counted" true ((Txn.stats t).Txn.recovered > 0)

let test_coordinator_crash_presumed_abort () =
  (* Crash the coordinator between prepare and decision: the transaction
     hangs Pending until the presumed-abort window closes, then recovery
     scrubs the tentative copies. *)
  let overlay, keys = build 34 in
  let sim = Sim.create () in
  let t = manager sim overlay in
  let coordinator = first_online overlay in
  let ks = [ keys.(9); keys.(33); keys.(71) ] in
  let id = ref (-1) in
  Sim.schedule sim ~delay:0. (fun () ->
      id := Txn.submit t ~coordinator (doc_ops ks "doc-orphan"));
  (* Prepares land at 0.5 and acks at 1.0; kill the volatile driver
     state before the acks arrive. *)
  Sim.schedule sim ~delay:0.75 (fun () ->
      Txn.note_crash t coordinator;
      Node.set_online (Overlay.node overlay coordinator) false);
  Sim.schedule sim ~delay:5. (fun () ->
      Node.set_online (Overlay.node overlay coordinator) true);
  Sim.run sim;
  Alcotest.check Alcotest.bool "stuck pending after the crash" true
    (Txn.status t !id = Some Txn.Pending);
  checkb "tentative copies exist" true (Txn.intent_count t > 0);
  checki "young pendings left alone" 0 (Txn.recover_pass t);
  Sim.schedule sim ~delay:(Txn.recover_after +. 60.) (fun () -> ());
  Sim.run sim;
  let resolved = Txn.recover_pass t in
  checkb "presumed abort resolved the orphans" true (resolved > 0);
  Alcotest.check Alcotest.bool "aborted" true (Txn.status t !id = Some Txn.Aborted);
  checki "log drained" 0 (Txn.intent_count t);
  List.iter
    (fun k -> checki "no torn residue" 0 (List.length (holders overlay k "doc-orphan")))
    ks

let test_health_flags_torn_write () =
  (* Bypass the txn layer and half-index a document by hand: the health
     audit must call it torn, and a fully indexed one clean. *)
  let overlay, keys = build 35 in
  let ka = keys.(2) and kb = keys.(44) in
  ignore (Overlay.insert overlay ~from:0 ka "doc-half");
  ignore (Overlay.insert overlay ~from:0 ka "doc-full");
  ignore (Overlay.insert overlay ~from:0 kb "doc-full");
  let docs = [| ("doc-half", [| ka; kb |]); ("doc-full", [| ka; kb |]) |] in
  let h = Health.check ~docs ~n_min:2 overlay in
  checki "exactly the half-indexed doc is torn" 1 h.Health.torn;
  checkb "violation names the document" true
    (List.exists
       (function
         | Health.Torn_write { doc; present = 1; total = 2 } -> doc = "doc-half"
         | _ -> false)
       h.Health.violations)

let test_submit_validation () =
  let overlay, _ = build 36 in
  let sim = Sim.create () in
  let t = manager sim overlay in
  Alcotest.check_raises "empty ops" (Invalid_argument "Txn.submit: empty transaction") (fun () ->
      ignore (Txn.submit t ~coordinator:0 []))

let suite =
  [
    Alcotest.test_case "delete drains all replicas" `Quick test_delete_drains_replicas;
    Alcotest.test_case "delete of last key keeps routing" `Quick
      test_delete_last_key_keeps_routing;
    Alcotest.test_case "delete of absent payload is a no-op" `Quick
      test_delete_absent_is_noop;
    Alcotest.test_case "delete storm drives retraction" `Slow
      test_delete_storm_drives_retraction;
    Alcotest.test_case "commit applies everywhere" `Quick test_commit_applies_everywhere;
    Alcotest.test_case "commit leaves no timer" `Quick test_commit_leaves_no_timer;
    Alcotest.test_case "abort leaves no residue" `Quick test_abort_leaves_no_residue;
    Alcotest.test_case "lost commit push recovered" `Quick
      test_lost_commit_push_recovered;
    Alcotest.test_case "coordinator crash, presumed abort" `Quick
      test_coordinator_crash_presumed_abort;
    Alcotest.test_case "health flags torn writes" `Quick test_health_flags_torn_write;
    Alcotest.test_case "submit validation" `Quick test_submit_validation;
  ]
