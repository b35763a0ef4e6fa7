(* Tests for Pgrid_core.Reconcile and the version/tombstone sidecar:
   routed deletes must stay deleted across stale replicas, and islands
   that split the same path independently must re-converge. *)

module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Distribution = Pgrid_workload.Distribution
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Builder = Pgrid_core.Builder
module Balance = Pgrid_core.Balance
module Reconcile = Pgrid_core.Reconcile
module Health = Pgrid_core.Health

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let build seed =
  let rng = Rng.create ~seed in
  let keys = Distribution.generate rng Distribution.Uniform ~n:1500 in
  let overlay =
    Builder.index rng ~peers:150 ~keys ~d_max:50 ~n_min:5 ~refs_per_level:3
  in
  (overlay, keys, rng)

(* The responsible peer and its whole replica group for a key. *)
let holders_of overlay key =
  let ids = ref [] in
  for i = 0 to Overlay.size overlay - 1 do
    let n = Overlay.node overlay i in
    if Node.responsible_for n key && Node.has_key n key then
      ids := i :: !ids
  done;
  List.rev !ids

let test_clock_and_meta () =
  let overlay, _, _ = build 11 in
  let c0 = Overlay.clock overlay in
  let key = Key.of_float 0.271828 in
  (match Overlay.insert ~stamp:10. overlay ~from:0 key "doc" with
  | None -> Alcotest.fail "insert failed to route"
  | Some _ -> ());
  checki "routed insert bumps the clock" (c0 + 1) (Overlay.clock overlay);
  let holders = holders_of overlay key in
  checkb "key has holders" true (holders <> []);
  List.iter
    (fun i ->
      match Node.meta (Overlay.node overlay i) key with
      | Some m ->
        checkb "write meta alive" true (not m.Node.dead);
        checki "write meta versioned" (c0 + 1) m.Node.version
      | None -> Alcotest.fail "holder missing write meta")
    holders;
  (match Overlay.delete ~stamp:20. overlay ~from:0 key with
  | None -> Alcotest.fail "delete failed to route"
  | Some r -> checkb "delete removed copies" true (r.Overlay.removed > 0));
  checki "routed delete bumps the clock" (c0 + 2) (Overlay.clock overlay);
  checki "no live copy survives" 0 (List.length (holders_of overlay key));
  List.iter
    (fun i ->
      match Node.meta (Overlay.node overlay i) key with
      | Some m ->
        checkb "tombstone dead" true m.Node.dead;
        checki "tombstone versioned" (c0 + 2) m.Node.version
      | None -> Alcotest.fail "former holder missing tombstone")
    holders

(* The headline regression: a replica that slept through a routed delete
   comes back with its stale copy.  The legacy union-only anti-entropy
   resurrects the key; the version-aware sync entombs the stale copy. *)
let resurrection_fixture seed =
  let overlay, _, _ = build seed in
  let key = Key.of_float 0.618034 in
  (match Overlay.insert ~stamp:10. overlay ~from:0 key "precious" with
  | None -> Alcotest.fail "insert failed to route"
  | Some _ -> ());
  let holders = holders_of overlay key in
  let stale = List.nth holders (List.length holders - 1) in
  Node.set_online (Overlay.node overlay stale) false;
  (match Overlay.delete ~stamp:20. overlay ~from:0 key with
  | None -> Alcotest.fail "delete failed to route"
  | Some _ -> ());
  Node.set_online (Overlay.node overlay stale) true;
  checkb "stale replica kept its copy" true
    (Node.has_key (Overlay.node overlay stale) key);
  let live = List.filter (fun i -> i <> stale) holders in
  (overlay, key, stale, List.hd live)

let test_legacy_anti_entropy_resurrects () =
  let overlay, key, stale, clean = resurrection_fixture 12 in
  let copied = Overlay.anti_entropy_pair overlay ~a:clean ~b:stale ~budget:1000 in
  checkb "legacy union copied the stale key back" true (copied > 0);
  checkb "key resurrected at the clean replica" true
    (Node.has_key (Overlay.node overlay clean) key);
  let r = Health.check ~versions:true ~n_min:5 overlay in
  checkb "audit reports the resurrection" true (r.Health.resurrected > 0)

let test_sync_pair_entombs_stale_copy () =
  let overlay, key, stale, clean = resurrection_fixture 12 in
  let r = Reconcile.sync_pair overlay ~a:clean ~b:stale ~budget:1000 in
  checkb "sync tombstoned the stale copy" true (r.Reconcile.tombstoned > 0);
  checkb "stale replica dropped the key" true
    (not (Node.has_key (Overlay.node overlay stale) key));
  checkb "clean replica still clean" true
    (not (Node.has_key (Overlay.node overlay clean) key));
  (match Node.meta (Overlay.node overlay stale) key with
  | Some m -> checkb "stale replica carries the tombstone now" true m.Node.dead
  | None -> Alcotest.fail "sync left no tombstone behind");
  let h = Health.check ~versions:true ~n_min:5 overlay in
  checki "no resurrection after version-aware sync" 0 h.Health.resurrected

let test_newer_write_beats_tombstone () =
  let overlay, key, stale, clean = resurrection_fixture 13 in
  (* The key is legitimately re-inserted after the delete: the new write
     outversions every tombstone and must survive the sync. *)
  (match Overlay.insert ~stamp:30. overlay ~from:0 key "reborn" with
  | None -> Alcotest.fail "re-insert failed to route"
  | Some _ -> ());
  ignore (Reconcile.sync_pair overlay ~a:clean ~b:stale ~budget:1000);
  checkb "re-inserted key survives at the clean replica" true
    (Node.has_key (Overlay.node overlay clean) key);
  let h = Health.check ~versions:true ~n_min:5 overlay in
  checki "a live re-insert is not a resurrection" 0 h.Health.resurrected

let test_tombstone_gc () =
  let overlay, key, stale, clean = resurrection_fixture 14 in
  ignore (Reconcile.sync_pair overlay ~a:clean ~b:stale ~budget:1000);
  checkb "tombstone debt outstanding" true (Reconcile.tombstone_debt overlay > 0);
  checki "young tombstones survive gc" 0 (Reconcile.gc ~gc_after:100. overlay ~now:60.);
  ignore key;
  let purged = Reconcile.gc ~gc_after:100. overlay ~now:1000. in
  checkb "expired tombstones purged" true (purged > 0);
  checki "debt cleared" 0 (Reconcile.tombstone_debt overlay)

(* A balance split racing partition onset: one island's restricted view
   of a partition splits while the other island keeps the parent path.
   After heal the structural repair must merge the stragglers in without
   losing keys or deletes. *)
let test_split_brain_balance_and_repair () =
  let overlay, _, _ = build 15 in
  (* Pick the partition of a probe key and overload it so a balance pass
     wants to split it. *)
  let probe = Key.of_float 0.4242 in
  let members = ref [] in
  let path = ref Path.root in
  (match (Overlay.search overlay ~from:0 probe).Overlay.responsible with
  | None -> Alcotest.fail "probe key unroutable"
  | Some id -> path := (Overlay.node overlay id).Node.path);
  for i = 0 to Overlay.size overlay - 1 do
    if Path.equal (Overlay.node overlay i).Node.path !path then
      members := i :: !members
  done;
  let members = List.sort compare !members in
  (* Island A keeps all but two members: enough to clear the split
     floor (strictly more than [2 * n_min = 2] online members in view)
     while island B's two stragglers stay on the parent path. *)
  checkb "partition has members to split" true (List.length members >= 5);
  (* Stuff every member with the same fresh in-range keys so the
     partition's distinct-key load dwarfs everyone else's. *)
  let krng = Rng.create ~seed:99 in
  let fat = ref [] in
  while List.length !fat < 120 do
    let k = Key.random krng in
    if Path.matches_key !path k then fat := k :: !fat
  done;
  List.iter
    (fun i ->
      let n = Overlay.node overlay i in
      List.iter
        (fun k ->
          Node.ensure_key n k;
          ignore (Node.insert_new n k "ballast"))
        !fat)
    members;
  (* Island A sees only half the members (the cut fell mid-group); its
     view is overloaded and splits.  Island B's members never hear of
     it. *)
  let split_at = List.length members - 2 in
  let side_a = List.filteri (fun i _ -> i < split_at) members in
  let side_b = List.filteri (fun i _ -> i >= split_at) members in
  let in_a i = (not (List.mem i members)) || List.mem i side_a in
  let d_max =
    (* Above every organic load, below the stuffed partition's. *)
    let m = ref 0 in
    for i = 0 to Overlay.size overlay - 1 do
      if not (List.mem i members) then
        m := max !m (Node.key_count (Overlay.node overlay i))
    done;
    !m + 30
  in
  let bcfg =
    { (Balance.default_config ~d_max ~n_min:1) with Balance.max_actions = 4 }
  in
  let report = Balance.pass ~restrict:in_a (Rng.create ~seed:7) overlay bcfg in
  checkb "island A split the overloaded path" true (report.Balance.splits > 0);
  List.iter
    (fun i ->
      checkb "island B members kept the parent path" true
        (Path.equal (Overlay.node overlay i).Node.path !path))
    side_b;
  let h = Health.check ~versions:true ~n_min:1 overlay in
  checkb "divergence detected after heal" true (h.Health.diverged > 0);
  checkb "conflicts lists the parent path" true
    (List.exists (fun p -> Path.equal p !path) (Reconcile.conflicts overlay));
  (* Heal: deterministic structural repair re-homes the stragglers. *)
  let repaired = Reconcile.repair_structure overlay in
  checkb "repair resolved the conflict" true (repaired > 0);
  let h2 = Health.check ~versions:true ~n_min:1 overlay in
  checki "no divergence after repair" 0 h2.Health.diverged;
  checki "no conflicts left" 0 (List.length (Reconcile.conflicts overlay));
  (* Every ballast key must still be findable — repair moved data, it
     did not drop it. *)
  List.iter
    (fun k ->
      match (Overlay.search overlay ~from:0 k).Overlay.responsible with
      | None -> Alcotest.failf "key unroutable after repair"
      | Some id ->
        checkb "responsible peer holds the key" true
          (Node.has_key (Overlay.node overlay id) k))
    !fat

let test_repair_is_deterministic () =
  let run () =
    let overlay, _, _ = build 16 in
    (* Force a one-sided split by hand: half of one partition extends
       its path, the rest stays. *)
    let path = (Overlay.node overlay 0).Node.path in
    let members = ref [] in
    for i = 0 to Overlay.size overlay - 1 do
      if Path.equal (Overlay.node overlay i).Node.path path then
        members := i :: !members
    done;
    let members = List.sort compare !members in
    List.iteri
      (fun idx i ->
        if idx mod 2 = 0 then begin
          let n = Overlay.node overlay i in
          Node.set_path n (Path.extend path 0);
          ignore (Node.drop_keys_outside n (Path.extend path 0))
        end)
      members;
    ignore (Reconcile.repair_structure overlay);
    List.map
      (fun i -> Path.to_string (Overlay.node overlay i).Node.path)
      (List.init (Overlay.size overlay) (fun i -> i))
  in
  checkb "repair outcome identical across runs" true (run () = run ())

(* The quadratic scan [Reconcile.conflicts] replaced: every inhabited
   path that is a strict prefix of another inhabited one, sorted. *)
let conflicts_by_scan overlay =
  let paths = Hashtbl.create 64 in
  Overlay.iter overlay (fun n ->
      if n.Node.online then Hashtbl.replace paths (Path.to_string n.Node.path) n.Node.path);
  let inhabited = Hashtbl.fold (fun _ p acc -> p :: acc) paths [] in
  List.filter
    (fun p ->
      List.exists
        (fun q -> Path.length q > Path.length p && Path.is_prefix_of ~prefix:p q)
        inhabited)
    inhabited
  |> List.sort Path.compare

(* Up to 40 peers on nested paths of at most 5 bits, some offline: an
   offline-only path must neither conflict nor hide a conflict. *)
let qcheck_conflicts =
  let peer = QCheck.Gen.(pair (string_size ~gen:(oneofl [ '0'; '1' ]) (int_bound 5)) bool) in
  let print peers =
    String.concat ";" (List.map (fun (p, on) -> (if on then "+" else "-") ^ p) peers)
  in
  QCheck.Test.make ~name:"conflicts = quadratic scan" ~count:500
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 40) peer))
    (fun peers ->
      let overlay = Overlay.create (Rng.create ~seed:1) ~n:(List.length peers) in
      List.iteri
        (fun i (p, on) ->
          let n = Overlay.node overlay i in
          Node.set_path n (Path.of_string p);
          Node.set_online n on)
        peers;
      Reconcile.conflicts overlay = conflicts_by_scan overlay)

(* The version rule as a property.  Two online replicas of the root
   path take interleaved writes, each at one side only, with versions
   drawn from one clock: versioned puts, whole-key deletes and payload
   deletes (a payload delete records a write only where it removed
   something, as a routed one does).  One sync with ample budget must
   leave, per key, the newest write's tombstone on both sides when that
   write is a delete, and otherwise the union of both sides' postings
   at the newest version.  A second sync then has nothing to do. *)
type write = Put of int * int | Del of int | Del_payload of int * int

let qcheck_version_rule =
  let key i = Key.of_float (0.1 +. (0.2 *. float_of_int i)) in
  let payload j = Printf.sprintf "p%d" j in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 30)
        (pair bool
           (frequency
              [
                (3, map2 (fun k p -> Put (k, p)) (int_bound 3) (int_bound 2));
                (1, map (fun k -> Del k) (int_bound 3));
                (2, map2 (fun k p -> Del_payload (k, p)) (int_bound 3) (int_bound 2));
              ])))
  in
  let print =
    QCheck.Print.list (fun (on_a, w) ->
        (if on_a then "a:" else "b:")
        ^
        match w with
        | Put (k, p) -> Printf.sprintf "put k%d p%d" k p
        | Del k -> Printf.sprintf "del k%d" k
        | Del_payload (k, p) -> Printf.sprintf "del k%d p%d" k p)
  in
  QCheck.Test.make ~name:"sync settles every key by the newest write" ~count:500
    (QCheck.make ~print ~shrink:QCheck.Shrink.list gen) (fun writes ->
      let overlay = Overlay.create (Rng.create ~seed:1) ~n:2 in
      let na = Overlay.node overlay 0 and nb = Overlay.node overlay 1 in
      (* newest.(k): the version of the newest recorded write to key k and
         whether it was a whole-key delete. *)
      let newest = Array.make 4 (0, false) in
      List.iteri
        (fun i (on_a, w) ->
          let n = if on_a then na else nb in
          let version = i + 1 and stamp = float_of_int (i + 1) in
          match w with
          | Put (k, p) ->
            Node.put n (key k) (payload p) ~version ~stamp;
            newest.(k) <- (version, false)
          | Del k ->
            ignore (Node.entomb n (key k) ~version ~stamp);
            newest.(k) <- (version, true)
          | Del_payload (k, p) ->
            if Node.remove_payload n (key k) (payload p) then begin
              Node.note_write n (key k) ~version ~stamp;
              newest.(k) <- (version, false)
            end)
        writes;
      let before =
        Array.init 4 (fun k ->
            ( Node.has_key na (key k) || Node.has_key nb (key k),
              List.sort_uniq String.compare (Node.lookup na (key k) @ Node.lookup nb (key k)) ))
      in
      ignore (Reconcile.sync_pair overlay ~a:0 ~b:1 ~budget:max_int);
      let settled n k =
        let version, deleted = newest.(k) in
        let present, union = before.(k) in
        let meta_ok =
          match Node.meta n (key k) with
          | None -> version = 0
          | Some m -> m.Node.version = version && m.Node.dead = deleted
        in
        meta_ok
        &&
        if deleted then not (Node.has_key n (key k))
        else Node.has_key n (key k) = present && Node.lookup n (key k) = union
      in
      List.for_all (fun k -> settled na k && settled nb k) [ 0; 1; 2; 3 ]
      && Reconcile.sync_pair overlay ~a:0 ~b:1 ~budget:max_int
         = { Reconcile.copied = 0; tombstoned = 0 })

let suite =
  [
    Alcotest.test_case "clock and meta on routed writes" `Quick test_clock_and_meta;
    Alcotest.test_case "legacy anti-entropy resurrects" `Quick
      test_legacy_anti_entropy_resurrects;
    Alcotest.test_case "sync_pair entombs stale copy" `Quick
      test_sync_pair_entombs_stale_copy;
    Alcotest.test_case "newer write beats tombstone" `Quick
      test_newer_write_beats_tombstone;
    Alcotest.test_case "tombstone gc" `Quick test_tombstone_gc;
    Alcotest.test_case "split-brain balance and repair" `Quick
      test_split_brain_balance_and_repair;
    Alcotest.test_case "repair deterministic" `Quick test_repair_is_deterministic;
    QCheck_alcotest.to_alcotest qcheck_conflicts;
    QCheck_alcotest.to_alcotest qcheck_version_rule;
  ]
