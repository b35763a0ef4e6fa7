(* Tests for Pgrid_core: nodes, the overlay operations, the builder and
   the deviation metric. *)

module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Reference = Pgrid_partition.Reference
module Distribution = Pgrid_workload.Distribution
module Node = Pgrid_core.Node
module Intset = Pgrid_core.Intset
module Overlay = Pgrid_core.Overlay
module Builder = Pgrid_core.Builder
module Deviation = Pgrid_core.Deviation

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let key x = Key.of_float x

(* --- Node ------------------------------------------------------------- *)

let test_node_store () =
  let n = Node.create ~id:1 in
  checki "empty" 0 (Node.key_count n);
  Node.insert n (key 0.3) "a";
  Node.insert n (key 0.3) "b";
  Node.insert n (key 0.7) "c";
  checki "distinct keys" 2 (Node.key_count n);
  Alcotest.check (Alcotest.list Alcotest.string) "payloads accumulate sorted"
    [ "a"; "b" ]
    (Node.lookup n (key 0.3));
  Node.insert n (key 0.3) "a";
  Alcotest.check (Alcotest.list Alcotest.string) "duplicate payload ignored"
    [ "a"; "b" ]
    (Node.lookup n (key 0.3));
  checkb "insert_new reports duplicates" false (Node.insert_new n (key 0.3) "b");
  checkb "insert_new reports fresh payloads" true (Node.insert_new n (key 0.3) "d");
  Alcotest.check (Alcotest.list Alcotest.string) "missing key" [] (Node.lookup n (key 0.5))

let test_node_refs () =
  let n = Node.create ~id:1 in
  Node.add_ref n ~level:3 42;
  Node.add_ref n ~level:3 42;
  Node.add_ref n ~level:3 1;
  (* self *)
  Alcotest.check (Alcotest.list Alcotest.int) "dedup and no self" [ 42 ]
    (Node.refs_at n ~level:3);
  Alcotest.check (Alcotest.list Alcotest.int) "missing level" [] (Node.refs_at n ~level:9);
  Node.add_ref n ~level:40 7;
  Alcotest.check (Alcotest.list Alcotest.int) "table grows" [ 7 ] (Node.refs_at n ~level:40);
  checki "levels grow past a write beyond them" 41 (Node.levels n);
  Alcotest.check_raises "level past 255" (Invalid_argument "Node: routing level past 255")
    (fun () -> Node.add_ref n ~level:256 7)

let test_node_replicas () =
  let n = Node.create ~id:1 in
  Node.add_replica n 2;
  Node.add_replica n 2;
  Node.add_replica n 1;
  Alcotest.check (Alcotest.list Alcotest.int) "dedup and no self" [ 2 ]
    (Node.replica_list n)

let test_node_drop_outside () =
  let n = Node.create ~id:1 in
  Node.insert n (key 0.2) "x";
  Node.insert n (key 0.8) "y";
  Node.set_path n (Path.of_string "0");
  checki "one key dropped" 1 (Node.drop_keys_outside n n.Node.path);
  checki "one key left" 1 (Node.key_count n);
  checkb "responsible for kept key" true (Node.responsible_for n (key 0.2));
  checkb "not responsible for dropped key" false (Node.responsible_for n (key 0.8))

(* --- Builder + Overlay --------------------------------------------------- *)

let build seed =
  let rng = Rng.create ~seed in
  let keys = Distribution.generate rng Distribution.Uniform ~n:2000 in
  let reference = Reference.compute ~keys ~peers:200 ~d_max:50 ~n_min:5 in
  (Builder.of_reference rng ~reference ~keys ~refs_per_level:2, reference, keys)

let test_builder_integrity () =
  let overlay, _, _ = build 1 in
  checki "no routing violations" 0 (Overlay.integrity_errors overlay);
  checki "population preserved" 200 (Overlay.size overlay)

let test_builder_deviation_small () =
  let overlay, reference, _ = build 2 in
  checkb "near-optimal deviation" true (Deviation.of_overlay ~reference overlay < 0.15)

let test_search_all_keys () =
  let overlay, _, keys = build 3 in
  let rng = Rng.create ~seed:33 in
  Array.iteri
    (fun i k ->
      if i mod 7 = 0 then begin
        let from = Rng.int rng (Overlay.size overlay) in
        let r = Overlay.search overlay ~from k in
        match r.Overlay.responsible with
        | Some id ->
          checkb "responsible covers key" true
            (Node.responsible_for (Overlay.node overlay id) k)
        | None -> Alcotest.fail "search failed on a healthy overlay"
      end)
    keys

let test_search_hop_bound () =
  let overlay, _, keys = build 4 in
  let stats = Overlay.stats overlay in
  let r = Overlay.search overlay ~from:0 keys.(17) in
  checkb "hops bounded by max path" true (r.Overlay.hops <= stats.Overlay.max_path_length)

let test_search_from_offline () =
  let overlay, _, keys = build 5 in
  Node.set_online (Overlay.node overlay 0) false;
  let r = Overlay.search overlay ~from:0 keys.(0) in
  checkb "offline origin fails" true (r.Overlay.responsible = None);
  checki "no hops" 0 r.Overlay.hops

let test_search_avoids_offline_refs () =
  let overlay, _, keys = build 6 in
  (* Knock out a random third of the network; searches must still mostly
     succeed thanks to redundant references. *)
  let rng = Rng.create ~seed:66 in
  for i = 0 to Overlay.size overlay - 1 do
    if Rng.float rng < 0.2 then Node.set_online (Overlay.node overlay i) false
  done;
  let ok = ref 0 and total = ref 0 in
  Array.iteri
    (fun i k ->
      if i mod 11 = 0 then begin
        let from = 1 + Rng.int rng (Overlay.size overlay - 1) in
        if (Overlay.node overlay from).Node.online then begin
          incr total;
          let r = Overlay.search overlay ~from k in
          match r.Overlay.responsible with
          | Some id ->
            checkb "responsible online" true (Overlay.node overlay id).Node.online;
            incr ok
          | None -> ()
        end
      end)
    keys;
  checkb "most searches survive 20% failures" true
    (float_of_int !ok /. float_of_int (max 1 !total) > 0.8)

let test_range_search_complete () =
  let overlay, _, keys = build 7 in
  let lo = key 0.42 and hi = key 0.58 in
  let r = Overlay.range_search overlay ~from:3 ~lo ~hi in
  let expected =
    Array.to_list keys
    |> List.filter (fun k -> Key.compare lo k <= 0 && Key.compare k hi <= 0)
    |> List.sort_uniq Key.compare
  in
  checki "all matches found" (List.length expected) (List.length r.Overlay.matches);
  let got = List.map fst r.Overlay.matches in
  checkb "in key order" true (List.sort Key.compare got = got);
  checkb "several partitions visited" true (List.length r.Overlay.visited > 1)

let test_range_bounds_inclusive () =
  let overlay, _, keys = build 8 in
  let k = keys.(5) in
  let r = Overlay.range_search overlay ~from:0 ~lo:k ~hi:k in
  checkb "point range finds its key" true (List.exists (fun (k', _) -> Key.equal k k') r.Overlay.matches)

let test_insert_replicates () =
  let overlay, _, _ = build 9 in
  let fresh = key 0.512345 in
  (match Overlay.insert overlay ~from:0 fresh "doc-9" with
  | None -> Alcotest.fail "insert failed"
  | Some hops -> checkb "bounded hops" true (hops <= 2 * Key.bits));
  let r = Overlay.search overlay ~from:7 fresh in
  Alcotest.check (Alcotest.list Alcotest.string) "payload found" [ "doc-9" ]
    r.Overlay.payloads;
  (* Every replica of the responsible partition holds the key. *)
  (match r.Overlay.responsible with
  | None -> Alcotest.fail "no responsible"
  | Some id ->
    let n = Overlay.node overlay id in
    List.iter
      (fun rid ->
        checkb "replica holds insert" true
          (Node.lookup (Overlay.node overlay rid) fresh <> []))
      (Node.replica_list n))

let test_anti_entropy () =
  let rng = Rng.create ~seed:10 in
  let overlay = Overlay.create rng ~n:3 in
  let a = Overlay.node overlay 0 and b = Overlay.node overlay 1 and c = Overlay.node overlay 2 in
  Node.set_path a (Path.of_string "0");
  Node.set_path b (Path.of_string "0");
  Node.set_path c (Path.of_string "1");
  Node.insert a (key 0.1) "x";
  Node.insert b (key 0.2) "y";
  Node.insert c (key 0.9) "z";
  let moved = Overlay.anti_entropy overlay in
  checki "two copies created" 2 moved;
  checki "a has both" 2 (Node.key_count a);
  checki "b has both" 2 (Node.key_count b);
  checki "c untouched (different path)" 1 (Node.key_count c);
  checki "second pass is a no-op" 0 (Overlay.anti_entropy overlay)

let test_anti_entropy_skips_offline () =
  let rng = Rng.create ~seed:31 in
  let overlay = Overlay.create rng ~n:3 in
  let a = Overlay.node overlay 0
  and b = Overlay.node overlay 1
  and c = Overlay.node overlay 2 in
  List.iter (fun n -> Node.set_path n (Path.of_string "0")) [ a; b; c ];
  Node.insert a (key 0.1) "x";
  Node.insert b (key 0.2) "y";
  Node.insert c (key 0.3) "z";
  Node.set_online c false;
  checki "only the online pair reconciles" 2 (Overlay.anti_entropy overlay);
  checki "offline store untouched" 1 (Node.key_count c);
  checkb "offline keys stay unshared" true (not (Node.has_key a (key 0.3)))

let test_anti_entropy_singleton () =
  let rng = Rng.create ~seed:32 in
  let overlay = Overlay.create rng ~n:2 in
  let a = Overlay.node overlay 0 and b = Overlay.node overlay 1 in
  Node.set_path a (Path.of_string "0");
  Node.set_path b (Path.of_string "0");
  Node.insert a (key 0.1) "x";
  Node.set_online b false;
  (* A's replica group has one online member: no partner, no copies. *)
  checki "singleton group is a no-op" 0 (Overlay.anti_entropy overlay)

let test_anti_entropy_pair_budget () =
  let rng = Rng.create ~seed:33 in
  let overlay = Overlay.create rng ~n:3 in
  let a = Overlay.node overlay 0
  and b = Overlay.node overlay 1
  and c = Overlay.node overlay 2 in
  Node.set_path a (Path.of_string "0");
  Node.set_path b (Path.of_string "0");
  Node.set_path c (Path.of_string "1");
  for i = 1 to 5 do
    Node.insert a (key (0.01 *. float_of_int i)) (Printf.sprintf "doc-%d" i)
  done;
  checki "budget caps the exchange" 3 (Overlay.anti_entropy_pair overlay ~a:0 ~b:1 ~budget:3);
  checki "b received exactly the budget" 3 (Node.key_count b);
  checki "second exchange drains the rest" 2
    (Overlay.anti_entropy_pair overlay ~a:0 ~b:1 ~budget:10);
  checki "then it is idempotent" 0 (Overlay.anti_entropy_pair overlay ~a:0 ~b:1 ~budget:10);
  checki "different paths never exchange" 0
    (Overlay.anti_entropy_pair overlay ~a:0 ~b:2 ~budget:10);
  checki "self-exchange is a no-op" 0 (Overlay.anti_entropy_pair overlay ~a:0 ~b:0 ~budget:10);
  Node.set_online b false;
  checki "offline partner is a no-op" 0 (Overlay.anti_entropy_pair overlay ~a:0 ~b:1 ~budget:10);
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Overlay.anti_entropy_pair: negative budget") (fun () ->
      ignore (Overlay.anti_entropy_pair overlay ~a:0 ~b:1 ~budget:(-1)))

let test_stats () =
  let overlay, reference, _ = build 11 in
  let s = Overlay.stats overlay in
  checki "peers" 200 s.Overlay.peers;
  checki "partitions match reference" (List.length reference.Reference.partitions)
    s.Overlay.partitions;
  checkb "replication near n/partitions" true
    (Float.abs (s.Overlay.mean_replication -. (200. /. float_of_int s.Overlay.partitions))
    < 1e-9)

let test_deviation_perfect_integer () =
  (* A hand-built reference with integer peer counts reproduced exactly
     must give deviation 0. *)
  let keys = Array.init 64 (fun i -> Key.of_float (float_of_int i /. 64.)) in
  let reference = Reference.compute ~keys ~peers:8 ~d_max:32 ~n_min:4 in
  let paths =
    List.concat_map
      (fun p ->
        List.init
          (int_of_float (Float.round p.Reference.peers))
          (fun _ -> p.Reference.path))
      reference.Reference.partitions
  in
  Alcotest.check (Alcotest.float 1e-9) "zero deviation" 0.
    (Deviation.of_paths ~reference paths)

let test_deviation_detects_imbalance () =
  let keys = Array.init 64 (fun i -> Key.of_float (float_of_int i /. 64.)) in
  let reference = Reference.compute ~keys ~peers:8 ~d_max:32 ~n_min:4 in
  (* Pile every peer onto one side. *)
  let lopsided = List.init 8 (fun _ -> Path.of_string "0") in
  checkb "imbalance scores high" true (Deviation.of_paths ~reference lopsided > 0.5)

let test_ensure_key_and_has_key () =
  let n = Node.create ~id:1 in
  checkb "absent" false (Node.has_key n (key 0.4));
  Node.ensure_key n (key 0.4);
  checkb "present after ensure" true (Node.has_key n (key 0.4));
  Alcotest.check (Alcotest.list Alcotest.string) "no payload fabricated" []
    (Node.lookup n (key 0.4));
  checki "counts as one key" 1 (Node.key_count n);
  Node.insert n (key 0.4) "x";
  Node.ensure_key n (key 0.4);
  Alcotest.check (Alcotest.list Alcotest.string) "ensure never clobbers payloads"
    [ "x" ] (Node.lookup n (key 0.4))

let test_search_key_present_flag () =
  let overlay, _, keys = build 12 in
  let r = Overlay.search overlay ~from:0 keys.(3) in
  checkb "indexed key present" true r.Overlay.key_present;
  (* A fresh key routes fine but is absent. *)
  let fresh = key 0.123456789 in
  let r2 = Overlay.search overlay ~from:0 fresh in
  checkb "routes" true (r2.Overlay.responsible <> None);
  checkb "absent key reported" true (not r2.Overlay.key_present)

let test_integrity_empty_complement_ok () =
  let rng = Rng.create ~seed:13 in
  let overlay = Overlay.create rng ~n:2 in
  let a = Overlay.node overlay 0 and b = Overlay.node overlay 1 in
  (* Both peers live in the right half; the left half is uninhabited, so
     their reference-less level 0 is legitimate. *)
  Node.set_path a (Path.of_string "10");
  Node.set_path b (Path.of_string "11");
  Node.add_ref a ~level:1 1;
  Node.add_ref b ~level:1 0;
  checki "no violation for empty complement" 0 (Overlay.integrity_errors overlay);
  (* Colonize the left half: now the missing level-0 references count. *)
  Node.set_path b (Path.of_string "0");
  checkb "violations once inhabited" true (Overlay.integrity_errors overlay > 0)

let test_trie_view () =
  let overlay, reference, _ = build 14 in
  let leaves = Pgrid_core.Trie_view.leaves overlay in
  checki "one leaf per partition" (List.length reference.Reference.partitions)
    (List.length leaves);
  (* Every online peer appears exactly once. *)
  let members = List.concat_map (fun l -> l.Pgrid_core.Trie_view.peers) leaves in
  checki "all peers listed" 200 (List.length members);
  checki "no duplicates" 200 (List.length (List.sort_uniq compare members));
  let rendering = Pgrid_core.Trie_view.render overlay in
  checkb "header present" true (Test_util.contains rendering "partition trie");
  (* Elision with a tiny budget. *)
  let short = Pgrid_core.Trie_view.render ~max_leaves:4 overlay in
  checkb "elides long tries" true (Test_util.contains short "elided")

(* Arena growth: adding peers past the initial capacity doubles the
   backing array; ids, node structs and their mutable state must survive
   every doubling. *)
let test_overlay_arena_growth () =
  let rng = Pgrid_prng.Rng.create ~seed:7 in
  let overlay = Overlay.create rng ~n:3 in
  let original = Overlay.node overlay 0 in
  Node.ensure_key original (key 0.25);
  for _ = 1 to 100 do
    let fresh = Overlay.add_peer overlay in
    checki "dense id assigned" (Overlay.size overlay - 1) fresh.Node.id
  done;
  checki "grown size" 103 (Overlay.size overlay);
  let ok = ref true in
  for i = 0 to Overlay.size overlay - 1 do
    if (Overlay.node overlay i).Node.id <> i then ok := false
  done;
  checkb "ids preserved across doublings" true !ok;
  checkb "node structs survive growth" true (Overlay.node overlay 0 == original);
  checkb "node state survives growth" true (Node.has_key (Overlay.node overlay 0) (key 0.25));
  Alcotest.check_raises "ids beyond count rejected"
    (Invalid_argument "Overlay.node: id out of range") (fun () ->
      ignore (Overlay.node overlay 103))

(* The incremental zero-bit and payload-key counts must track
   from-scratch recounts through any interleaving of payload inserts and
   removals, key removals (hand-overs), path extensions, cuts and
   drop_keys_outside.  Counts are read after a random half of the steps,
   so a stale count is read straight after [set_path] as well as after
   later mutations. *)
let qcheck_zero_counter =
  QCheck.Test.make ~name:"incremental zero-bit counter matches recount" ~count:100
    QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let n = Node.create ~id:0 in
      let zeros () =
        let level = Path.length n.Node.path in
        if level >= Key.bits then 0
        else
          List.fold_left
            (fun acc k -> if Key.bit k level = 0 then acc + 1 else acc)
            0 (Node.keys n)
      in
      let payload_keys () =
        List.length (List.filter (fun k -> Node.lookup n k <> []) (Node.keys n))
      in
      let some_key () = match Node.keys n with [] -> Key.random rng | k :: _ -> k in
      let ok = ref true in
      for step = 1 to 300 do
        (match Rng.int rng 9 with
        | 0 | 1 -> Node.insert n (Key.random rng) (string_of_int (step mod 7))
        | 2 -> Node.insert n (some_key ()) (string_of_int (step mod 7))
        | 3 -> Node.ensure_key n (Key.random rng)
        | 4 -> (
          let k = some_key () in
          match Node.lookup n k with
          | [] -> ignore (Node.remove_payload n k "0")
          | p :: _ -> ignore (Node.remove_payload n k p))
        | 5 -> Node.remove_key n (some_key ())
        | 6 ->
          if Path.length n.Node.path < 8 then
            Node.set_path n (Path.extend n.Node.path (Rng.int rng 2))
        | 7 -> ignore (Node.cut_outside n n.Node.path)
        | _ -> ignore (Node.drop_keys_outside n n.Node.path));
        if Rng.bool rng then begin
          if Node.zero_count n <> zeros () then ok := false;
          if Node.payload_key_count n <> payload_keys () then ok := false
        end
      done;
      !ok)

let qcheck_builder_integrity =
  QCheck.Test.make ~name:"builder overlays route every key" ~count:15
    QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let keys = Distribution.generate rng Distribution.Uniform ~n:400 in
      let overlay = Builder.index rng ~peers:50 ~keys ~d_max:40 ~n_min:3 ~refs_per_level:2 in
      Overlay.integrity_errors overlay = 0
      && Array.for_all
           (fun k ->
             match (Overlay.search overlay ~from:0 k).Overlay.responsible with
             | Some id -> Node.responsible_for (Overlay.node overlay id) k
             | None -> false)
           keys)

(* --- Reference choice and divergence ------------------------------------ *)

(* The two-pass count-then-scan that [Overlay.eligible] and
   [Overlay.draw] replaced, kept as their reference: count the eligible
   members, draw a rank, scan to it. *)
let count_then_scan overlay rng ~admit ~src ~excluding set =
  let usable id =
    id <> excluding && (Overlay.node overlay id).Node.online && admit src id
  in
  let count = Intset.fold (fun acc id -> if usable id then acc + 1 else acc) 0 set in
  if count = 0 then -1
  else begin
    let target = Rng.int rng count in
    let seen = ref 0 and chosen = ref (-1) in
    Intset.iter
      (fun id ->
        if usable id then begin
          if !seen = target then chosen := id;
          incr seen
        end)
      set;
    !chosen
  end

(* Random reference sets over 40 peers, some offline, some edges vetoed
   by [admit] (or no [admit] at all), with or without an [excluding]
   member: both must pick the same peer and leave the RNG alike. *)
let qcheck_pick_kernel =
  let peers = 40 in
  let ids = QCheck.Gen.(list_size (int_bound 30) (int_bound (peers - 1))) in
  let print (members, offline, vetoed, (with_admit, excluding, seed)) =
    let ints l = String.concat ";" (List.map string_of_int l) in
    Printf.sprintf "members=[%s] offline=[%s] vetoed=[%s] admit=%b excluding=%d seed=%d"
      (ints members) (ints offline) (ints vetoed) with_admit excluding seed
  in
  let gen =
    QCheck.Gen.(
      tup4 ids ids ids (triple bool (int_range (-1) (peers - 1)) (int_bound 10_000)))
  in
  QCheck.Test.make ~name:"single-pass pick = count-then-scan" ~count:500
    (QCheck.make ~print gen) (fun (members, offline, vetoed, (with_admit, excluding, seed)) ->
      let overlay = Overlay.create (Rng.create ~seed:1) ~n:peers in
      List.iter (fun id -> Node.set_online (Overlay.node overlay id) false) offline;
      let set = Intset.of_list members in
      let src = 7 in
      (* Vetoes only edges out of [src], so a wrong [src] shows. *)
      let veto s id = not (s = src && List.mem id vetoed) in
      let r1 = Rng.create ~seed and r2 = Rng.create ~seed in
      let expected =
        count_then_scan overlay r1
          ~admit:(if with_admit then veto else fun _ _ -> true)
          ~src ~excluding set
      in
      let admit = if with_admit then Some veto else None in
      let count = Overlay.eligible ?admit overlay ~src ~excluding set in
      let got = if count = 0 then -1 else Overlay.draw overlay r2 count in
      got = expected && Rng.int r1 1_000_000 = Rng.int r2 1_000_000)

(* While no peer is offline and there is no [admit], [eligible] counts
   the set without reading a node and [draw] maps its rank straight to
   the member.  Random sets of 0-200 of 256 all-online peers, with
   [excluding] none (-1), absent or present: the direct pick and the
   scan (forced by an [admit] that vetoes nothing) agree on the count,
   the peer and the generator state after. *)
let qcheck_direct_pick =
  let peers = 256 in
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_bound 200) (int_bound (peers - 1)))
        (int_bound 2) (int_bound 10_000))
  in
  let print (members, mode, seed) =
    Printf.sprintf "members=[%s] excluding-mode=%d seed=%d"
      (String.concat ";" (List.map string_of_int members))
      mode seed
  in
  QCheck.Test.make ~name:"direct pick = scanned pick while all online" ~count:500
    (QCheck.make ~print gen) (fun (members, mode, seed) ->
      let overlay = Overlay.create (Rng.create ~seed:1) ~n:peers in
      let set = Intset.of_list members in
      let excluding =
        match mode with
        | 0 -> -1
        | 1 ->
          (* The smallest peer id outside the set. *)
          let rec absent i = if i < peers && Intset.mem set i then absent (i + 1) else i in
          absent 0
        | _ -> if members = [] then -1 else List.nth members (seed mod List.length members)
      in
      let pick ?admit rng =
        let count = Overlay.eligible ?admit overlay ~src:0 ~excluding set in
        (count, if count = 0 then -1 else Overlay.draw overlay rng count)
      in
      let r1 = Rng.create ~seed and r2 = Rng.create ~seed in
      let direct = pick r1 and scanned = pick ~admit:(fun _ _ -> true) r2 in
      direct = scanned
      && (snd direct = -1 || snd direct <> excluding)
      && Rng.bits64 r1 = Rng.bits64 r2)

(* [Node.set_online] keeps the overlay's offline count exact, which
   [Overlay.online_count] reads: random toggles (often repeating the
   value a peer already has), interleaved with [add_peer], then a
   [Merge.overlays] of the result with a second toggled overlay. *)
let qcheck_liveness_census =
  let op = QCheck.Gen.(pair (int_bound 63) bool) in
  let gen = QCheck.Gen.(triple (int_range 1 20) (list_size (int_bound 120) op) (int_bound 10_000)) in
  let print (n, ops, seed) =
    Printf.sprintf "n=%d seed=%d ops=[%s]" n seed
      (String.concat ";"
         (List.map (fun (i, on) -> Printf.sprintf "%d%c" i (if on then '+' else '-')) ops))
  in
  let recount o =
    let c = ref 0 in
    Overlay.iter o (fun n -> if n.Node.online then incr c);
    !c
  in
  QCheck.Test.make ~name:"offline census = recount under toggles" ~count:300
    (QCheck.make ~print gen) (fun (n, ops, seed) ->
      let o = Overlay.create (Rng.create ~seed) ~n in
      let ok = ref true in
      List.iter
        (fun (i, on) ->
          (* An out-of-range id grows the overlay by one peer instead. *)
          if i < Overlay.size o then Node.set_online (Overlay.node o i) on
          else ignore (Overlay.add_peer o);
          ok := !ok && Overlay.online_count o = recount o)
        ops;
      let other = Overlay.create (Rng.create ~seed:(seed + 1)) ~n:5 in
      Node.set_online (Overlay.node other (seed mod 5)) false;
      let config =
        {
          Pgrid_construction.Engine.n_min = 1;
          d_max = 10;
          max_fruitless = 2;
          refer_hops = 2;
          mode = Pgrid_construction.Engine.Theory;
        }
      in
      let m =
        (Pgrid_construction.Merge.overlays (Rng.create ~seed) ~config ~max_rounds:1 o other)
          .Pgrid_construction.Merge.overlay
      in
      !ok && Overlay.online_count m = recount m
      && Overlay.online_count m = Overlay.online_count o + Overlay.online_count other)

(* A standalone node counts itself. *)
let test_node_census () =
  let n = Node.create ~id:3 in
  checki "starts online" 0 (Node.offline n.Node.census);
  Node.set_online n false;
  Node.set_online n false;
  checki "one offline, however often set" 1 (Node.offline n.Node.census);
  Node.set_online n true;
  checki "back online" 0 (Node.offline n.Node.census)

(* Whatever the path (direct or scanned), a pick is an online member
   other than [excluding], and [Overlay.forward] never steps to an
   offline peer. *)
let qcheck_offline_never_picked =
  let peers = 64 in
  let ids = QCheck.Gen.(list_size (int_bound 60) (int_bound (peers - 1))) in
  let gen = QCheck.Gen.(quad ids ids (int_range (-1) (peers - 1)) (int_bound 10_000)) in
  let print (members, offline, excluding, seed) =
    let ints l = String.concat ";" (List.map string_of_int l) in
    Printf.sprintf "members=[%s] offline=[%s] excluding=%d seed=%d" (ints members)
      (ints offline) excluding seed
  in
  QCheck.Test.make ~name:"an offline reference is never picked" ~count:500
    (QCheck.make ~print gen) (fun (members, offline, excluding, seed) ->
      let overlay = Overlay.create (Rng.create ~seed) ~n:peers in
      List.iter (fun id -> Node.set_online (Overlay.node overlay id) false) offline;
      let set = Intset.of_list members in
      let rng = Rng.create ~seed in
      let usable id = id <> excluding && (Overlay.node overlay id).Node.online in
      let any = Intset.exists usable set in
      let picks_ok =
        List.for_all
          (fun _ ->
            let count = Overlay.eligible overlay ~src:0 ~excluding set in
            if count = 0 then not any else usable (Overlay.draw overlay rng count))
          (List.init 20 Fun.id)
      in
      (* Peer 0 on path "0", every member on path "1": a key starting
         with 1 diverges at level 0, so [forward] picks among them. *)
      let src = Overlay.node overlay 0 in
      Node.set_path src (Path.of_string "0");
      Intset.iter
        (fun id ->
          if id <> 0 then begin
            Node.set_path (Overlay.node overlay id) (Path.of_string "1");
            Node.add_ref src ~level:0 id
          end)
        set;
      let forward_ok =
        match Overlay.forward overlay src (key 0.75) with
        | `Next id -> id <> 0 && (Overlay.node overlay id).Node.online
        | `Dead_end _ ->
          not (Intset.exists (fun id -> id <> 0 && (Overlay.node overlay id).Node.online) set)
        | `Responsible -> false
      in
      picks_ok && forward_ok)

(* Sequential joins route by [Overlay.forward] on an overlay made from
   their own generator, with every peer online; before, they drew
   [Rng.pick_list] over [Node.refs_at].  Random reference sets at a
   random level of one node of 64 all-online peers: [Overlay.pick]
   returns the same member (or -1 where the list is empty) and leaves
   the generator where [pick_list] does. *)
let qcheck_pick_is_pick_list =
  let peers = 64 in
  let gen =
    QCheck.Gen.(
      triple (list_size (int_bound 40) (int_bound (peers - 1))) (int_bound 5) (int_bound 10_000))
  in
  let print (members, level, seed) =
    Printf.sprintf "members=[%s] level=%d seed=%d"
      (String.concat ";" (List.map string_of_int members))
      level seed
  in
  QCheck.Test.make ~name:"all-online pick = Rng.pick_list over refs_at" ~count:500
    (QCheck.make ~print gen) (fun (members, level, seed) ->
      let overlay = Overlay.create (Rng.create ~seed:1) ~n:peers in
      let n = Overlay.node overlay 5 in
      List.iter (fun id -> Node.add_ref n ~level id) members;
      let r1 = Rng.create ~seed and r2 = Rng.create ~seed in
      let expected =
        match Node.refs_at n ~level with [] -> -1 | refs -> Rng.pick_list r1 refs
      in
      let got = Overlay.pick overlay r2 n ~level ~excluding:(-1) in
      got = expected && Rng.bits64 r1 = Rng.bits64 r2)

(* The rejection loop that query origins, construction's random
   contacts and storm origins each wrote out: a uniform id per try,
   kept when online and not [excluding], at most [4 n] tries. *)
let rejection_sample overlay rng ~excluding =
  let n = Overlay.size overlay in
  let rec go attempts =
    if attempts = 0 then None
    else begin
      let i = Rng.int rng n in
      if i <> excluding && (Overlay.node overlay i).Node.online then Some i
      else go (attempts - 1)
    end
  in
  go (4 * n)

(* Overlays of 1-30 peers with random ones offline (all of them, at
   times), [excluding] none (-1) or a random peer: [random_online]
   agrees with the reference loop on eight successive draws and on the
   generator state after. *)
let qcheck_random_online =
  let gen =
    QCheck.Gen.(
      quad (int_range 1 30) (list_size (int_bound 40) (int_bound 29)) (int_range (-1) 29)
        (int_bound 10_000))
  in
  let print (n, offline, excluding, seed) =
    Printf.sprintf "n=%d offline=[%s] excluding=%d seed=%d" n
      (String.concat ";" (List.map string_of_int offline))
      excluding seed
  in
  QCheck.Test.make ~name:"random_online = rejection loop" ~count:500
    (QCheck.make ~print gen) (fun (n, offline, excluding, seed) ->
      let overlay = Overlay.create (Rng.create ~seed:1) ~n in
      List.iter
        (fun id -> if id < n then Node.set_online (Overlay.node overlay id) false)
        offline;
      let r1 = Rng.create ~seed and r2 = Rng.create ~seed in
      List.for_all
        (fun _ ->
          let expected = rejection_sample overlay r1 ~excluding in
          let got = Overlay.random_online overlay r2 ~excluding in
          got = Option.value expected ~default:(-1))
        (List.init 8 Fun.id)
      && Rng.bits64 r1 = Rng.bits64 r2)

(* The bit-by-bit loop [Overlay.divergence_level] replaced. *)
let divergence_by_bits path key =
  let len = Path.length path in
  let rec go l =
    if l >= len then None else if Path.bit path l <> Key.bit key l then Some l else go (l + 1)
  in
  go 0

let qcheck_divergence_level =
  QCheck.Test.make ~name:"O(1) divergence level = bit-by-bit loop" ~count:200
    QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let key = Key.random rng in
      let bits = Key.to_string key in
      let ok = ref true in
      for len = 0 to Key.bits do
        (* The key's own prefix, the prefix with one bit flipped, and
           unrelated bits: no divergence, a chosen one, and any. *)
        let flipped =
          String.mapi
            (fun i c ->
              if len > 0 && i = Rng.int rng len then if c = '0' then '1' else '0' else c)
            (String.sub bits 0 len)
        in
        let unrelated = String.init len (fun _ -> if Rng.bool rng then '1' else '0') in
        List.iter
          (fun s ->
            let path = Path.of_string s in
            if Overlay.divergence_level path key <> divergence_by_bits path key then
              ok := false)
          [ String.sub bits 0 len; flipped; unrelated ]
      done;
      !ok)

(* --- Census ---------------------------------------------------------------- *)

(* The string-keyed census [Overlay.census] replaced (Balance's copy, plus
   [excluding] from Maintenance's): (path, ascending online members,
   offline count), sorted by the path's string. *)
let census_by_strings ?(excluding = -1) overlay =
  let tbl = Hashtbl.create 64 in
  for i = Overlay.size overlay - 1 downto 0 do
    if i <> excluding then begin
      let n = Overlay.node overlay i in
      let key = Path.to_string n.Node.path in
      let path, members, off =
        Option.value ~default:(n.Node.path, [], 0) (Hashtbl.find_opt tbl key)
      in
      if n.Node.online then Hashtbl.replace tbl key (path, i :: members, off)
      else Hashtbl.replace tbl key (path, members, off + 1)
    end
  done;
  Hashtbl.fold (fun key v acc -> (key, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* Up to 40 peers on paths of at most 4 bits (so paths repeat and nest),
   some offline, with or without an [excluding] peer. *)
let qcheck_census =
  let peer = QCheck.Gen.(pair (string_size ~gen:(oneofl [ '0'; '1' ]) (int_bound 4)) bool) in
  let gen = QCheck.Gen.(pair (list_size (int_range 1 40) peer) (int_range (-1) 40)) in
  let print (peers, excluding) =
    Printf.sprintf "peers=[%s] excluding=%d"
      (String.concat ";"
         (List.map (fun (p, on) -> (if on then "+" else "-") ^ p) peers))
      excluding
  in
  QCheck.Test.make ~name:"census = string-keyed census" ~count:500
    (QCheck.make ~print gen) (fun (peers, excluding) ->
      let overlay = Overlay.create (Rng.create ~seed:1) ~n:(List.length peers) in
      List.iteri
        (fun i (p, on) ->
          let n = Overlay.node overlay i in
          Node.set_path n (Path.of_string p);
          Node.set_online n on)
        peers;
      let got =
        List.map
          (fun { Overlay.path; members; offline } -> (path, members, offline))
          (Overlay.census ~excluding overlay)
      in
      got = census_by_strings ~excluding overlay)

(* --- Routing tables ------------------------------------------------------ *)

(* One operation on the routing tables of a few nodes of one overlay. *)
type ref_op =
  | Add of int * int * int  (** node, level, peer *)
  | Union of int * int * int  (** into, from, level *)
  | Set of int * int * int list
  | Remove of int * int * int
  | Reset of int * int  (** node, capacity *)
  | Has of int * int * int
  | Fill of int * int * int  (** node, level, count: [set_refs] of [0 .. count-1] *)
  | Compact

let ref_nodes = 4
let ref_levels = 3

let print_ref_op = function
  | Add (n, l, p) -> Printf.sprintf "add %d@%d %d" n l p
  | Union (a, b, l) -> Printf.sprintf "union %d<-%d@%d" a b l
  | Set (n, l, ps) ->
    Printf.sprintf "set %d@%d [%s]" n l (String.concat ";" (List.map string_of_int ps))
  | Remove (n, l, p) -> Printf.sprintf "remove %d@%d %d" n l p
  | Reset (n, c) -> Printf.sprintf "reset %d cap %d" n c
  | Has (n, l, p) -> Printf.sprintf "has %d@%d %d" n l p
  | Fill (n, l, c) -> Printf.sprintf "fill %d@%d %d" n l c
  | Compact -> "compact"

(* Peers 0-39 (the nodes themselves among them, so self-references are
   exercised); now and then a fill of a few thousand ids, and rarely one
   longer than 16,384, so the tables outgrow one chunk of storage. *)
let gen_ref_op =
  let open QCheck.Gen in
  let node = int_bound (ref_nodes - 1) and level = int_bound (ref_levels - 1) in
  let peer = int_bound 39 in
  frequency
    [
      (20, map3 (fun n l p -> Add (n, l, p)) node level peer);
      (8, map3 (fun a b l -> Union (a, b, l)) node node level);
      (6, map3 (fun n l ps -> Set (n, l, ps)) node level (list_size (int_bound 12) peer));
      (8, map3 (fun n l p -> Remove (n, l, p)) node level peer);
      (2, map2 (fun n c -> Reset (n, c)) node (int_bound 10));
      (6, map3 (fun n l p -> Has (n, l, p)) node level peer);
      (4, map3 (fun n l c -> Fill (n, l, c)) node level (int_range 100 2000));
      (1, map3 (fun n l c -> Fill (n, l, c)) node level (int_range 16_380 16_400));
      (2, return Compact);
    ]

(* The node an operation writes, if any. *)
let ref_op_writes op n =
  match op with
  | Add (m, _, _) | Union (m, _, _) | Set (m, _, _) | Remove (m, _, _) | Reset (m, _)
  | Fill (m, _, _) ->
    m = n
  | Has _ -> false
  | Compact -> true

(* The model: per node, a sorted list per level. *)
let rec merge_sorted a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
    if x < y then x :: merge_sorted a' b
    else if y < x then y :: merge_sorted a b'
    else x :: merge_sorted a' b'

let model_add_all self l ps =
  List.filter (( <> ) self) (merge_sorted l (List.sort_uniq compare ps))

let apply_ref_op overlay model levels op =
  let node = Overlay.node overlay in
  match op with
  | Add (n, l, p) ->
    Node.add_ref (node n) ~level:l p;
    model.(n).(l) <- model_add_all n model.(n).(l) [ p ];
    true
  | Union (a, b, l) ->
    Node.union_refs (node a) ~level:l ~from:(node b);
    model.(a).(l) <- model_add_all a model.(a).(l) model.(b).(l);
    true
  | Set (n, l, ps) ->
    Node.set_refs (node n) ~level:l ps;
    model.(n).(l) <- model_add_all n [] ps;
    true
  | Remove (n, l, p) ->
    Node.remove_ref (node n) ~level:l p;
    model.(n).(l) <- List.filter (( <> ) p) model.(n).(l);
    true
  | Reset (n, c) ->
    Node.reset_refs (node n) ~capacity:c;
    Array.fill model.(n) 0 ref_levels [];
    levels.(n) <- max 8 c;
    true
  | Has (n, l, p) -> Node.has_ref (node n) ~level:l p = List.mem p model.(n).(l)
  | Fill (n, l, c) ->
    let ps = List.init c Fun.id in
    Node.set_refs (node n) ~level:l ps;
    model.(n).(l) <- model_add_all n [] ps;
    true
  | Compact ->
    Overlay.compact_refs overlay;
    true

(* Every read of every (node, level), one level past the model's too,
   and every node's level count, against the model; [step] seeds the
   shuffle.  A shuffle of more than
   4,096 ids is compared only on the node the step wrote ([touched]):
   the comparison would cost more than the rest of the check. *)
let tables_agree overlay model levels ~touched step =
  let ok = ref true in
  for n = 0 to ref_nodes - 1 do
    let nd = Overlay.node overlay n in
    if Node.levels nd <> levels.(n) then ok := false;
    for l = 0 to ref_levels do
      let want = if l < ref_levels then model.(n).(l) else [] in
      let expected = Array.of_list want in
      let len = Array.length expected in
      let agrees i p = i < len && expected.(i) = p in
      let seen = ref 0 in
      Node.refs_iter nd ~level:l (fun p ->
          if not (agrees !seen p) then ok := false;
          incr seen);
      let folded =
        Node.refs_fold nd ~level:l (fun i p -> if agrees i p then i + 1 else len + 1) 0
      in
      let shuffle_agrees () =
        let into = Array.make (len + 1) (-1) in
        let shuffled = Overlay.shuffled_refs (Rng.create ~seed:step) nd ~level:l into in
        Rng.shuffle_ints (Rng.create ~seed:step) expected;
        shuffled = len && Array.sub into 0 len = expected
      in
      if
        Node.refs_at nd ~level:l <> want
        || Node.refs_count nd ~level:l <> len
        || !seen <> len || folded <> len
        || ((len <= 4096 || touched n) && not (shuffle_agrees ()))
      then ok := false
    done
  done;
  !ok

let qcheck_routing_tables =
  let print ops = String.concat ", " (List.map print_ref_op ops) in
  QCheck.Test.make ~name:"routing tables = per-level Intset model" ~count:25 ~long_factor:20
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 30) gen_ref_op))
    (fun ops ->
      let overlay = Overlay.create (Rng.create ~seed:1) ~n:ref_nodes in
      let model = Array.init ref_nodes (fun _ -> Array.make ref_levels []) in
      let levels = Array.make ref_nodes 8 in
      List.for_all Fun.id
        (List.mapi
           (fun step op ->
             apply_ref_op overlay model levels op
             && tables_agree overlay model levels ~touched:(ref_op_writes op) step)
           ops))

(* A union whose growth compacts the arena first: node 1's reset leaves
   a gap a little larger than the live runs, so making room for node 2
   slides node 0's run (the source) down, and the merge into node 2's
   moved run writes over the source's old place.  The merge must read
   the source where the slide put it.  (The sizes fit the arena's
   growth rule: a run gets half again the room it needs.) *)
let test_union_across_compaction () =
  let overlay = Overlay.create (Rng.create ~seed:1) ~n:3 in
  let node = Overlay.node overlay in
  let ids base n = List.init n (fun i -> base + i) in
  Node.set_refs (node 1) ~level:0 (ids 100 26);
  Node.set_refs (node 2) ~level:0 (ids 200 4);
  Node.set_refs (node 0) ~level:0 (ids 300 20);
  Node.reset_refs (node 1) ~capacity:0;
  Node.union_refs (node 2) ~level:0 ~from:(node 0);
  Alcotest.check (Alcotest.list Alcotest.int) "union" (ids 200 4 @ ids 300 20)
    (Node.refs_at (node 2) ~level:0);
  Alcotest.check (Alcotest.list Alcotest.int) "source kept" (ids 300 20)
    (Node.refs_at (node 0) ~level:0)

(* The same arena, but node 0's run is read by [refs_iter] while the
   callback grows two other tables, as maintenance's adopt does: no
   compaction may move the run being read, so both get every id. *)
let test_iter_across_growth () =
  let overlay = Overlay.create (Rng.create ~seed:1) ~n:4 in
  let node = Overlay.node overlay in
  let ids base n = List.init n (fun i -> base + i) in
  Node.set_refs (node 1) ~level:0 (ids 100 26);
  Node.set_refs (node 2) ~level:0 (ids 200 4);
  Node.set_refs (node 0) ~level:0 (ids 300 20);
  Node.reset_refs (node 1) ~capacity:0;
  Node.refs_iter (node 0) ~level:0 (fun r ->
      Node.add_ref (node 2) ~level:0 r;
      Node.add_ref (node 3) ~level:0 r);
  Overlay.compact_refs overlay;
  Alcotest.check (Alcotest.list Alcotest.int) "first copy" (ids 200 4 @ ids 300 20)
    (Node.refs_at (node 2) ~level:0);
  Alcotest.check (Alcotest.list Alcotest.int) "second copy" (ids 300 20)
    (Node.refs_at (node 3) ~level:0)

(* A routed search allocates its result and nothing per hop: at most
   15 words, the result record, its [Some], the walk's own record and
   the store probe's option, where a hop that allocated one word would
   add about five. *)
let test_search_allocates_result_only () =
  let overlay, _, keys = build 7 in
  let rng = Rng.create ~seed:77 in
  let count = 2_000 in
  let from = Array.init count (fun _ -> Rng.int rng (Overlay.size overlay)) in
  let at = Array.init count (fun _ -> keys.(Rng.int rng (Array.length keys))) in
  let hops = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to count - 1 do
    hops := !hops + (Overlay.search overlay ~from:from.(i) at.(i)).Overlay.hops
  done;
  let words = Gc.minor_words () -. before in
  checkb "searches take hops" true (!hops > count);
  if words > 15. *. float_of_int count then
    Alcotest.failf "%d searches allocated %.0f minor words" count words

let suite =
  [
    Alcotest.test_case "node store" `Quick test_node_store;
    Alcotest.test_case "node refs" `Quick test_node_refs;
    Alcotest.test_case "node replicas" `Quick test_node_replicas;
    Alcotest.test_case "node drop outside" `Quick test_node_drop_outside;
    Alcotest.test_case "builder integrity" `Quick test_builder_integrity;
    Alcotest.test_case "builder deviation" `Quick test_builder_deviation_small;
    Alcotest.test_case "search finds every key" `Quick test_search_all_keys;
    Alcotest.test_case "search hop bound" `Quick test_search_hop_bound;
    Alcotest.test_case "search from offline node" `Quick test_search_from_offline;
    Alcotest.test_case "search under failures" `Quick test_search_avoids_offline_refs;
    Alcotest.test_case "range search completeness" `Quick test_range_search_complete;
    Alcotest.test_case "range bounds inclusive" `Quick test_range_bounds_inclusive;
    Alcotest.test_case "insert replicates" `Quick test_insert_replicates;
    Alcotest.test_case "anti-entropy" `Quick test_anti_entropy;
    Alcotest.test_case "anti-entropy skips offline" `Quick test_anti_entropy_skips_offline;
    Alcotest.test_case "anti-entropy singleton" `Quick test_anti_entropy_singleton;
    Alcotest.test_case "anti-entropy pair budget" `Quick test_anti_entropy_pair_budget;
    Alcotest.test_case "overlay stats" `Quick test_stats;
    Alcotest.test_case "deviation zero on perfect" `Quick test_deviation_perfect_integer;
    Alcotest.test_case "deviation detects imbalance" `Quick test_deviation_detects_imbalance;
    Alcotest.test_case "ensure_key / has_key" `Quick test_ensure_key_and_has_key;
    Alcotest.test_case "search key_present" `Quick test_search_key_present_flag;
    Alcotest.test_case "integrity: empty complement" `Quick test_integrity_empty_complement_ok;
    Alcotest.test_case "trie view" `Quick test_trie_view;
    Alcotest.test_case "overlay arena growth" `Quick test_overlay_arena_growth;
    QCheck_alcotest.to_alcotest qcheck_zero_counter;
    QCheck_alcotest.to_alcotest qcheck_builder_integrity;
    QCheck_alcotest.to_alcotest qcheck_pick_kernel;
    QCheck_alcotest.to_alcotest qcheck_direct_pick;
    QCheck_alcotest.to_alcotest qcheck_pick_is_pick_list;
    QCheck_alcotest.to_alcotest qcheck_random_online;
    QCheck_alcotest.to_alcotest qcheck_liveness_census;
    Alcotest.test_case "node census" `Quick test_node_census;
    QCheck_alcotest.to_alcotest qcheck_offline_never_picked;
    QCheck_alcotest.to_alcotest qcheck_divergence_level;
    QCheck_alcotest.to_alcotest qcheck_census;
    QCheck_alcotest.to_alcotest qcheck_routing_tables;
    Alcotest.test_case "union across a compaction" `Quick test_union_across_compaction;
    Alcotest.test_case "iteration across a growth" `Quick test_iter_across_growth;
    Alcotest.test_case "search allocates only its result" `Quick
      test_search_allocates_result_only;
  ]
