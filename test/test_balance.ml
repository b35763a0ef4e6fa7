(* Tests for Pgrid_core.Balance: online storage-load balancing via
   runtime partition splits and retractions. *)

module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Distribution = Pgrid_workload.Distribution
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Balance = Pgrid_core.Balance
module Health = Pgrid_core.Health
module Maintenance = Pgrid_core.Maintenance
module Round = Pgrid_construction.Round

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* A U-built overlay with one key per peer: few fat partitions, plenty
   of membership for runtime splits to divide. *)
let build seed =
  let rng = Rng.create ~seed in
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
  (overlay, keys)

let census_paths overlay =
  let tbl = Hashtbl.create 64 in
  for i = 0 to Overlay.size overlay - 1 do
    let n = Overlay.node overlay i in
    Hashtbl.replace tbl (Path.to_string n.Node.path) ()
  done;
  Hashtbl.fold (fun p () acc -> p :: acc) tbl [] |> List.sort compare

let assert_all_keys_findable overlay keys =
  Array.iter
    (fun k ->
      for from = 0 to 15 do
        let r = Overlay.search overlay ~from k in
        (match r.Overlay.responsible with
        | None -> Alcotest.fail "routing dead-ended after balancing"
        | Some _ -> checkb "key present at responsible peer" true r.Overlay.key_present)
      done)
    keys

let test_split_reduces_load () =
  let overlay, keys = build 11 in
  let cfg = Balance.default_config ~d_max:10 ~n_min:2 in
  let r = Balance.pass (Rng.create ~seed:42) overlay cfg in
  checkb "splits happened" true (r.Balance.splits > 0);
  checkb "load brought under d_max" true (r.Balance.max_load <= 10);
  checkb "keys migrated off the wrong halves" true (r.Balance.migrated_keys > 0);
  checki "no routing violations" 0 (Overlay.integrity_errors overlay);
  let h = Health.check ~keys ~n_min:2 overlay in
  checki "no ref-integrity violations" 0 h.Health.ref_integrity;
  checki "no keys lost" 0 h.Health.lost;
  assert_all_keys_findable overlay keys

let test_split_respects_floor () =
  let overlay, _ = build 12 in
  let before = census_paths overlay in
  let cfg = Balance.default_config ~d_max:10 ~n_min:3 in
  let r = Balance.pass (Rng.create ~seed:43) overlay cfg in
  checkb "splits happened" true (r.Balance.splits > 0);
  (* Every partition a split created keeps at least n_min members
     (pre-existing partitions below the floor are the construction's
     business, not balancing's). *)
  let members = Hashtbl.create 64 in
  for i = 0 to Overlay.size overlay - 1 do
    let p = Path.to_string (Overlay.node overlay i).Node.path in
    Hashtbl.replace members p (1 + Option.value ~default:0 (Hashtbl.find_opt members p))
  done;
  Hashtbl.iter
    (fun p count ->
      if not (List.mem p before) then
        checkb "membership floor held in split halves" true (count >= 3))
    members

let test_retract_merges () =
  let overlay, keys = build 13 in
  ignore
    (Balance.pass (Rng.create ~seed:44) overlay
       (Balance.default_config ~d_max:10 ~n_min:2));
  let before = List.length (census_paths overlay) in
  (* Generous floors force the now-sparse leaves to merge back up. *)
  let cfg =
    {
      (Balance.default_config ~d_max:50 ~n_min:2) with
      Balance.retract_members = 12;
      retract_load = 12;
    }
  in
  let r = Balance.pass (Rng.create ~seed:45) overlay cfg in
  checkb "retractions happened" true (r.Balance.retracts > 0);
  checkb "partition count shrank" true (List.length (census_paths overlay) < before);
  checkb "merged partitions stay under d_max" true (r.Balance.max_load <= 50);
  let h = Health.check ~keys ~n_min:2 overlay in
  checki "no ref-integrity violations" 0 h.Health.ref_integrity;
  checki "no keys lost" 0 h.Health.lost;
  assert_all_keys_findable overlay keys

let test_same_seed_deterministic () =
  let run () =
    let overlay, _ = build 14 in
    let r =
      Balance.pass (Rng.create ~seed:46) overlay
        (Balance.default_config ~d_max:10 ~n_min:2)
    in
    (r, census_paths overlay)
  in
  let r1, c1 = run () and r2, c2 = run () in
  checki "same splits" r1.Balance.splits r2.Balance.splits;
  checki "same migrations" r1.Balance.migrated_keys r2.Balance.migrated_keys;
  checkb "same resulting trie" true (c1 = c2)

let test_noop_when_within_bounds () =
  let overlay, _ = build 15 in
  let before = census_paths overlay in
  (* Construction already enforces d_max = 50; nothing to do. *)
  let r =
    Balance.pass (Rng.create ~seed:47) overlay
      (Balance.default_config ~d_max:50 ~n_min:2)
  in
  checki "no splits" 0 r.Balance.splits;
  checki "no retractions" 0 r.Balance.retracts;
  checkb "trie untouched" true (census_paths overlay = before)

let test_skips_partitions_with_offline_members () =
  let overlay, _ = build 16 in
  (* Take one member of every partition offline: balancing must refuse
     to act (an absent member would come back with a stale path). *)
  let seen = Hashtbl.create 64 in
  for i = 0 to Overlay.size overlay - 1 do
    let p = Path.to_string (Overlay.node overlay i).Node.path in
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      Node.set_online (Overlay.node overlay i) false
    end
  done;
  let before = census_paths overlay in
  let r =
    Balance.pass (Rng.create ~seed:48) overlay
      (Balance.default_config ~d_max:10 ~n_min:2)
  in
  checki "no splits with offline members" 0 r.Balance.splits;
  checki "no retractions with offline members" 0 r.Balance.retracts;
  checkb "trie untouched" true (census_paths overlay = before)

let test_validate_rejects_bad_config () =
  let base = Balance.default_config ~d_max:20 ~n_min:2 in
  let rejects cfg =
    match Balance.validate cfg with
    | () -> Alcotest.fail "validate accepted a bad config"
    | exception Invalid_argument _ -> ()
  in
  rejects { base with Balance.d_max = 0 };
  rejects { base with Balance.n_min = 0 };
  rejects { base with Balance.retract_load = 20 }

(* --- pinned passes ----------------------------------------------------- *)

(* What a pass decided, in one line: its report, a digest of every peer's
   path, store size, replica list and routing table, and the next draw
   of the pass's generator (so a changed number of draws shows too). *)
let fingerprint rng overlay reports =
  let b = Buffer.create 8192 in
  let ints l = List.iter (fun i -> Buffer.add_string b (string_of_int i ^ ",")) l in
  for i = 0 to Overlay.size overlay - 1 do
    let n = Overlay.node overlay i in
    Buffer.add_string b (Printf.sprintf "%d %s %d r:" i (Path.to_string n.Node.path) (Node.key_count n));
    ints (Node.replica_list n);
    for level = 0 to Path.length n.Node.path - 1 do
      Buffer.add_string b " l:";
      ints (Node.refs_at n ~level)
    done;
    Buffer.add_char b '\n'
  done;
  String.concat " "
    (List.map
       (fun r ->
         Printf.sprintf "%d/%d/%d/%d/%d" r.Balance.splits r.Balance.retracts
           r.Balance.migrated_keys r.Balance.copied_keys r.Balance.max_load)
       reports)
  ^ Printf.sprintf " peers=%s next=%d"
      (Digest.to_hex (Digest.string (Buffer.contents b)))
      (Rng.int rng 1_000_000_000)

let split_cfg = Balance.default_config ~d_max:10 ~n_min:2

let retract_cfg =
  {
    (Balance.default_config ~d_max:50 ~n_min:2) with
    Balance.retract_members = 12;
    retract_load = 12;
  }

let golden name run expected =
  Alcotest.test_case ("pass golden: " ^ name) `Quick (fun () ->
      Alcotest.(check string) name expected (run ()))

(* Recorded before the census became incremental. *)
let golden_split =
  golden "split-heavy"
    (fun () ->
      let overlay, _ = build 11 in
      let rng = Rng.create ~seed:42 in
      let r = Balance.pass rng overlay split_cfg in
      fingerprint rng overlay [ r ])
    "19/0/2751/0/10 peers=64cd3f0c8d8ec5e987072162605271a6 next=310986886"

let golden_retract =
  golden "retract"
    (fun () ->
      let overlay, _ = build 13 in
      let rng = Rng.create ~seed:44 in
      let r1 = Balance.pass rng overlay split_cfg in
      let r2 = Balance.pass rng overlay retract_cfg in
      fingerprint rng overlay [ r1; r2 ])
    "17/0/2531/0/10 0/18/0/0/34 peers=4e5e8dd601782f351c2253bbb52b3a75 next=703576496"

(* Two islands split on their own, then one retracts; a few peers sleep
   throughout, so some partitions carry offline members the islands'
   views must still count. *)
let golden_restrict =
  golden "restrict"
    (fun () ->
      let overlay, _ = build 17 in
      List.iter (fun i -> Node.set_online (Overlay.node overlay i) false) [ 3; 40; 77; 150 ];
      let rng = Rng.create ~seed:49 in
      let even i = i mod 2 = 0 and odd i = i mod 2 = 1 in
      let r1 = Balance.pass ~restrict:even rng overlay split_cfg in
      let r2 = Balance.pass ~restrict:odd rng overlay split_cfg in
      let r3 = Balance.pass ~restrict:even rng overlay retract_cfg in
      fingerprint rng overlay [ r1; r2; r3 ])
    "11/0/862/0/30 13/0/970/0/30 0/11/0/0/30 peers=8ed5636ff7aff8103814826548be78ee next=909544347"

(* Under [restrict] a partition with no admitted online member does not
   exist for the pass, offline members or not: it neither blocks its
   ancestors' retraction (the leaf test) nor shows in the view.  Without
   [restrict] the same sleeping peer is a member and blocks. *)
let test_restrict_ignores_dark_descendants () =
  let run restrict =
    let overlay = Overlay.create (Rng.create ~seed:1) ~n:4 in
    List.iter
      (fun (i, p) -> Node.set_path (Overlay.node overlay i) (Path.of_string p))
      [ (0, "0"); (1, "0"); (2, "1"); (3, "00") ];
    Node.set_online (Overlay.node overlay 3) false;
    let cfg =
      { (Balance.default_config ~d_max:50 ~n_min:1) with Balance.retract_members = 4 }
    in
    (Balance.pass ?restrict (Rng.create ~seed:2) overlay cfg).Balance.retracts
  in
  checki "sleeping descendant blocks the merge" 0 (run None);
  checki "invisible to a restricted pass" 1 (run (Some (fun _ -> true)))

(* One pass that may take many actions against a pass capped at one
   action, repeated until it stops: both must make the very same
   decisions, with the same actions, the same peers moved, the same
   draws and the same final load.  Peers left one level below their
   partition, sleeping peers and an island [restrict] make the actions
   move peers into partitions that already have members, online or
   offline. *)
let qcheck_many_action_pass =
  let setup seed =
    let rng = Rng.create ~seed in
    let keys = Distribution.generate rng Distribution.Uniform ~n:600 in
    let overlay =
      Pgrid_core.Builder.index rng ~peers:96 ~keys ~d_max:50 ~n_min:2 ~refs_per_level:2
    in
    for _ = 0 to Rng.int rng 8 do
      let n = Overlay.node overlay (Rng.int rng 96) in
      if Rng.bool rng && Path.length n.Node.path < Key.bits then begin
        let p = Path.extend n.Node.path (Rng.int rng 2) in
        Node.set_path n p;
        ignore (Node.drop_keys_outside n p)
      end;
      if Rng.bool rng then Node.set_online n false
    done;
    overlay
  in
  let gen = QCheck.Gen.(triple (int_bound 100_000) (int_range 1 2) (int_bound 3)) in
  let print (seed, n_min, island) = Printf.sprintf "seed=%d n_min=%d island=%d" seed n_min island in
  QCheck.Test.make ~name:"pass = repeated one-action passes" ~count:100
    (QCheck.make ~print gen) (fun (seed, n_min, island) ->
      (* [island] 0: no restrict; otherwise peers with [i mod 4 = island]
         are out of reach. *)
      let restrict = if island = 0 then None else Some (fun i -> i mod 4 <> island) in
      let cfgs =
        [
          { (Balance.default_config ~d_max:12 ~n_min) with Balance.max_actions = 10_000 };
          {
            (Balance.default_config ~d_max:50 ~n_min) with
            Balance.retract_members = 8;
            retract_load = 12;
            max_actions = 10_000;
          };
        ]
      in
      let many () =
        let overlay = setup seed and rng = Rng.create ~seed in
        let reports = List.map (fun cfg -> Balance.pass ?restrict rng overlay cfg) cfgs in
        fingerprint rng overlay reports
      in
      let repeated () =
        let overlay = setup seed and rng = Rng.create ~seed in
        let reports =
          List.map
            (fun cfg ->
              let one = { cfg with Balance.max_actions = 1 } in
              let rec go acc =
                let r = Balance.pass ?restrict rng overlay one in
                let acc =
                  {
                    r with
                    Balance.splits = acc.Balance.splits + r.Balance.splits;
                    retracts = acc.Balance.retracts + r.Balance.retracts;
                    migrated_keys = acc.Balance.migrated_keys + r.Balance.migrated_keys;
                    copied_keys = acc.Balance.copied_keys + r.Balance.copied_keys;
                  }
                in
                if r.Balance.splits + r.Balance.retracts = 0 then acc else go acc
              in
              go
                {
                  Balance.splits = 0;
                  retracts = 0;
                  migrated_keys = 0;
                  copied_keys = 0;
                  max_load = 0;
                })
            cfgs
        in
        fingerprint rng overlay reports
      in
      many () = repeated ())

(* [default_config] must be a config its own [validate] accepts, at the
   smallest [d_max] too: [retract_load] stays below it. *)
let test_default_config_validates () =
  for d_max = 1 to 64 do
    for n_min = 1 to 8 do
      match Balance.validate (Balance.default_config ~d_max ~n_min) with
      | () -> ()
      | exception Invalid_argument msg -> Alcotest.failf "d_max=%d n_min=%d: %s" d_max n_min msg
    done
  done;
  let overlay, _ = build 11 in
  ignore (Balance.pass (Rng.create ~seed:1) overlay (Balance.default_config ~d_max:1 ~n_min:1))

(* --- the partition index ----------------------------------------------- *)

module Codes = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* The census computed from nothing, as [Overlay.census] did before the
   overlay kept an index: grouped by [Path.code], walking ids downward
   so each member list comes out ascending, then the distinct paths
   sorted. *)
let census_from_scratch ?(excluding = -1) overlay =
  let tbl = Codes.create 16 in
  for i = Overlay.size overlay - 1 downto 0 do
    if i <> excluding then begin
      let n = Overlay.node overlay i in
      let code = Path.code n.Node.path in
      let path, members, offline =
        Option.value ~default:(n.Node.path, [], 0) (Codes.find_opt tbl code)
      in
      Codes.replace tbl code
        (if n.Node.online then (path, i :: members, offline) else (path, members, offline + 1))
    end
  done;
  Codes.fold (fun _ (path, members, offline) acc -> { Overlay.path; members; offline } :: acc) tbl []
  |> List.stable_sort (fun a b -> Path.compare a.Overlay.path b.Overlay.path)

type index_op =
  | Move of int * int  (** peer; 0/1 extend by that bit, 2 parent, 3 sibling *)
  | Toggle of int
  | Insert of int * int  (** origin, key in millionths of the key space *)
  | Delete of int * int  (** origin, which of the keys inserted so far *)
  | Remove_key of int * int  (** peer, which of its keys *)
  | Trim of int  (** drop the peer's keys outside its path *)
  | Clear of int  (** empty the peer's store *)
  | Add_peer
  | Pass of int * bool  (** island (0: none), split config or retract config *)
  | Read of int  (** census excluding that peer, or none when negative *)

let show_index_op = function
  | Move (p, m) -> Printf.sprintf "move %d %d" p m
  | Toggle p -> Printf.sprintf "toggle %d" p
  | Insert (o, k) -> Printf.sprintf "insert %d %d" o k
  | Delete (o, k) -> Printf.sprintf "delete %d %d" o k
  | Remove_key (p, k) -> Printf.sprintf "remove_key %d %d" p k
  | Trim p -> Printf.sprintf "trim %d" p
  | Clear p -> Printf.sprintf "clear %d" p
  | Add_peer -> "add_peer"
  | Pass (island, split) -> Printf.sprintf "pass %d %s" island (if split then "split" else "retract")
  | Read e -> Printf.sprintf "read %d" e

(* Node-level ops draw from a dozen peers, so moves, reads and trims of
   one peer interleave. *)
let gen_index_op =
  let open QCheck.Gen in
  let peer = int_bound 11 in
  frequency
    [
      (3, map2 (fun p m -> Move (p, m)) peer (int_bound 3));
      (2, map (fun p -> Toggle p) peer);
      (4, map2 (fun o k -> Insert (o, k)) (int_bound 63) (int_bound 999_999));
      (2, map2 (fun o k -> Delete (o, k)) (int_bound 63) (int_bound 1000));
      (2, map2 (fun p k -> Remove_key (p, k)) peer (int_bound 1000));
      (2, map (fun p -> Trim p) peer);
      (2, map (fun p -> Clear p) peer);
      (1, return Add_peer);
      (2, map2 (fun i s -> Pass (i, s)) (int_bound 3) bool);
      (3, map (fun e -> Read e) (int_range (-1) 11));
    ]

(* Whether every read of the index, with and without [excluding], shows
   what a census from nothing shows, and each partition's load is the
   largest key count among its online members. *)
let index_agrees ?excluding overlay =
  let slots = List.init (Overlay.partitions overlay) Fun.id in
  let part i = Overlay.partition overlay i in
  let largest members =
    List.fold_left (fun m id -> max m (Node.key_count (Overlay.node overlay id))) 0 members
  in
  Overlay.census ?excluding overlay = census_from_scratch ?excluding overlay
  && List.map part slots = census_from_scratch overlay
  && List.for_all (fun i -> Overlay.load overlay i = largest (part i).Overlay.members) slots
  && List.map (fun (l : Pgrid_core.Trie_view.leaf) -> l.keys) (Pgrid_core.Trie_view.leaves overlay)
     = List.filter_map
         (fun i -> if (part i).Overlay.members = [] then None else Some (Overlay.load overlay i))
         slots

let index_setup seed =
  let rng = Rng.create ~seed in
  let keys = Distribution.generate rng Distribution.Uniform ~n:300 in
  Pgrid_core.Builder.index rng ~peers:64 ~keys ~d_max:40 ~n_min:2 ~refs_per_level:2

(* Runs [ops] on a fresh overlay; [Read] asks [agrees], and so does
   every step when [each_step]. *)
let run_index_ops ?(each_step = false) ~(agrees : ?excluding:Node.id -> Overlay.t -> bool) seed
    ops =
  let overlay = index_setup seed and rng = Rng.create ~seed in
  let inserted = ref [||] in
  let split = { (Balance.default_config ~d_max:12 ~n_min:1) with Balance.max_actions = 8 } in
  let retract =
    { (Balance.default_config ~d_max:50 ~n_min:1) with Balance.retract_members = 8; retract_load = 12 }
  in
  let peer p = Overlay.node overlay (p mod Overlay.size overlay) in
  List.for_all
    (fun op ->
      (match op with
      | Move (p, m) ->
        let n = peer p in
        let path = n.Node.path in
        (match m with
        | (0 | 1) when Path.length path < Key.bits -> Node.set_path n (Path.extend path m)
        | 2 when Path.length path > 0 -> Node.set_path n (Path.parent path)
        | 3 when Path.length path > 0 -> Node.set_path n (Path.sibling path)
        | _ -> ());
        true
      | Toggle p ->
        let n = peer p in
        Node.set_online n (not n.Node.online);
        true
      | Insert (o, k) ->
        let key = Key.of_float (float_of_int k /. 1e6) in
        inserted := Array.append !inserted [| key |];
        ignore (Overlay.insert overlay ~from:(o mod Overlay.size overlay) key "x");
        true
      | Delete (o, k) ->
        if !inserted <> [||] then
          ignore
            (Overlay.delete overlay ~from:(o mod Overlay.size overlay)
               !inserted.(k mod Array.length !inserted));
        true
      | Remove_key (p, k) ->
        let n = peer p in
        (match Node.keys n with
        | [] -> ()
        | keys -> Node.remove_key n (List.nth keys (k mod List.length keys)));
        true
      | Trim p ->
        let n = peer p in
        ignore (Node.drop_keys_outside n n.Node.path);
        true
      | Clear p ->
        Node.clear_store (peer p);
        true
      | Add_peer ->
        ignore (Overlay.add_peer overlay);
        true
      | Pass (island, s) ->
        let restrict = if island = 0 then None else Some (fun i -> i mod 4 <> island) in
        ignore (Balance.pass ?restrict rng overlay (if s then split else retract));
        true
      | Read e ->
        let excluding = if e < 0 then None else Some (e mod Overlay.size overlay) in
        agrees ?excluding overlay)
      && ((not each_step) || agrees overlay))
    ops
  && agrees overlay

let qcheck_index_matches_census =
  let gen = QCheck.Gen.(pair (int_bound 100_000) (list_size (int_range 1 40) gen_index_op)) in
  let print (seed, ops) =
    Printf.sprintf "seed=%d ops=[%s]" seed (String.concat "; " (List.map show_index_op ops))
  in
  let shrink (seed, ops) = QCheck.Iter.map (fun ops -> (seed, ops)) (QCheck.Shrink.list ops) in
  QCheck.Test.make ~name:"partition index = census from scratch" ~count:100 ~long_factor:20
    (QCheck.make ~print ~shrink gen) (fun (seed, ops) ->
      run_index_ops ~agrees:index_agrees seed ops)

(* The scans the index's path reads replaced, over every peer in id
   order: the members of [path] by liveness, ascending; the online peers
   at or below [prefix] but [excluding], descending; and the two
   inhabited tests. *)
let scan_members overlay path ~online =
  List.filter
    (fun i ->
      let n = Overlay.node overlay i in
      n.Node.online = online && Path.equal n.Node.path path)
    (List.init (Overlay.size overlay) Fun.id)

let scan_below overlay prefix ~excluding =
  List.rev
    (List.filter
       (fun i ->
         let n = Overlay.node overlay i in
         i <> excluding && n.Node.online && Path.is_prefix_of ~prefix n.Node.path)
       (List.init (Overlay.size overlay) Fun.id))

let scan_inhabited overlay prefix ~above =
  List.exists
    (fun i ->
      let n = Overlay.node overlay i in
      n.Node.online
      && (Path.is_prefix_of ~prefix n.Node.path
         || (above && Path.is_prefix_of ~prefix:n.Node.path prefix)))
    (List.init (Overlay.size overlay) Fun.id)

(* Whether every path read of the index equals its scan, on every peer's
   path, each of its complements, its parent and its children. *)
let reads_agree ?(excluding = -1) overlay =
  let count = Overlay.partitions overlay in
  let slots = List.init count Fun.id in
  let slot_agrees i =
    let { Overlay.path; members; _ } = Overlay.partition overlay i in
    let offline = scan_members overlay path ~online:false in
    let key = Path.mid path in
    members = scan_members overlay path ~online:true
    && Overlay.online_covering overlay key
       = List.filter
           (fun i ->
             let n = Overlay.node overlay i in
             n.Node.online && Node.responsible_for n key)
           (List.init (Overlay.size overlay) Fun.id)
    && Overlay.offline_members overlay i = offline
    && Overlay.alive overlay i
       = List.length members
         + List.length
             (List.filter (fun id -> Node.key_count (Overlay.node overlay id) > 0) offline)
  in
  let prefixes =
    List.init (Overlay.size overlay) (fun i ->
        let p = (Overlay.node overlay i).Node.path in
        let len = Path.length p in
        (p :: List.init len (Path.complement_at p))
        @ (if len > 0 then [ Path.parent p ] else [])
        @ if len < Key.bits then [ Path.extend p 0; Path.extend p 1 ] else [])
    |> List.concat
    |> List.sort_uniq Path.compare
  in
  let prefix_agrees prefix =
    let first, past = Overlay.subtree overlay prefix in
    let under =
      List.filter
        (fun i -> Path.is_prefix_of ~prefix (Overlay.partition overlay i).Overlay.path)
        slots
    in
    under = List.init (past - first) (( + ) first)
    && (first = past || first < count)
    && List.for_all
         (fun i -> Path.compare (Overlay.partition overlay i).Overlay.path prefix < 0)
         (List.init first Fun.id)
    && Overlay.find overlay prefix
       = (match
            List.filter (fun i -> Path.equal (Overlay.partition overlay i).Overlay.path prefix) slots
          with
         | [ i ] -> i
         | _ -> -1)
    && Overlay.inhabited_below overlay prefix = scan_inhabited overlay prefix ~above:false
    && Overlay.inhabited_around overlay prefix = scan_inhabited overlay prefix ~above:true
    && Overlay.online_below overlay prefix ~excluding = scan_below overlay prefix ~excluding
  in
  List.for_all slot_agrees slots && List.for_all prefix_agrees prefixes

let qcheck_index_reads_match_scans =
  let gen = QCheck.Gen.(pair (int_bound 100_000) (list_size (int_range 1 20) gen_index_op)) in
  let print (seed, ops) =
    Printf.sprintf "seed=%d ops=[%s]" seed (String.concat "; " (List.map show_index_op ops))
  in
  let shrink (seed, ops) = QCheck.Iter.map (fun ops -> (seed, ops)) (QCheck.Shrink.list ops) in
  QCheck.Test.make ~name:"partition index path reads = scans" ~count:30 ~long_factor:20
    (QCheck.make ~print ~shrink gen) (fun (seed, ops) ->
      run_index_ops ~each_step:true ~agrees:reads_agree seed ops)

let test_daemon_defaults_off () =
  let c = Maintenance.default_daemon_config ~n_min:2 in
  checkb "balance disabled by default" true (c.Maintenance.balance = None)

let test_figures_balance_smoke () =
  let e = Pgrid_experiment.Experiment.find "balance" in
  let metrics = (e.run ~reps:None ~smoke:true ~seed:20050830).metrics in
  let v name =
    match List.find_opt (fun (n, _, _) -> n = name) metrics with
    | Some (_, x, _) -> x
    | None -> Alcotest.failf "metric %s missing" name
  in
  let sampled arm =
    List.exists (fun (n, _, _) -> String.starts_with ~prefix:(arm ^ "/max_load@") n) metrics
  in
  checkb "balanced arm sampled" true (sampled "on");
  checkb "unbalanced arm sampled" true (sampled "off");
  checkb "unbalanced arm never splits" true (v "off/splits" = 0.);
  checkb "both arms track inserts" true (v "on/inserted" > 0. && v "off/inserted" > 0.)

let suite =
  [
    Alcotest.test_case "split reduces load, keeps data findable" `Slow
      test_split_reduces_load;
    Alcotest.test_case "split respects membership floor" `Slow test_split_respects_floor;
    Alcotest.test_case "retract merges starved leaves" `Slow test_retract_merges;
    Alcotest.test_case "same seed, same trie" `Slow test_same_seed_deterministic;
    Alcotest.test_case "no-op within bounds" `Quick test_noop_when_within_bounds;
    Alcotest.test_case "skips partitions with offline members" `Quick
      test_skips_partitions_with_offline_members;
    Alcotest.test_case "validate rejects bad configs" `Quick
      test_validate_rejects_bad_config;
    Alcotest.test_case "default config validates" `Quick test_default_config_validates;
    Alcotest.test_case "daemon ships with balancing off" `Quick test_daemon_defaults_off;
    Alcotest.test_case "figures balance smoke" `Slow test_figures_balance_smoke;
    Alcotest.test_case "restrict ignores dark descendants" `Quick
      test_restrict_ignores_dark_descendants;
    QCheck_alcotest.to_alcotest qcheck_many_action_pass;
    QCheck_alcotest.to_alcotest qcheck_index_matches_census;
    QCheck_alcotest.to_alcotest qcheck_index_reads_match_scans;
    golden_split;
    golden_retract;
    golden_restrict;
  ]
