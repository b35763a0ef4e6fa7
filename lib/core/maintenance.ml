module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event
module Sim = Pgrid_simnet.Sim

let node = Overlay.node

(* --- shared helpers -------------------------------------------------------- *)

(* Online peers whose paths branch into the complement [prefix]. *)
let complement_candidates overlay prefix ~excluding =
  let rec collect i acc =
    if i >= Overlay.size overlay then acc
    else begin
      let m = node overlay i in
      if i <> excluding && m.Node.online && Path.is_prefix_of ~prefix m.Node.path
      then collect (i + 1) (i :: acc)
      else collect (i + 1) acc
    end
  in
  collect 0 []

(* Online peers sharing exactly [path], excluding one id. *)
let partition_members overlay path ~excluding =
  let rec collect i acc =
    if i >= Overlay.size overlay then acc
    else begin
      let m = node overlay i in
      if i <> excluding && m.Node.online && Path.equal m.Node.path path then
        collect (i + 1) (i :: acc)
      else collect (i + 1) acc
    end
  in
  collect 0 []

(* Refill one emptied routing level with a random complement peer. *)
let refill_level rng overlay i level =
  let n = node overlay i in
  if level < Path.length n.Node.path && Node.refs_count n ~level = 0 then begin
    let prefix = Path.complement_at n.Node.path level in
    match complement_candidates overlay prefix ~excluding:i with
    | [] -> ()
    | pool -> Node.add_ref n ~level (Rng.pick_list rng pool)
  end

(* A peer that changed partition invalidates third-party routing entries
   pointing at its old position; drop the ones that no longer match and
   refill any level this emptied. *)
let purge_stale_refs rng overlay id =
  let moved = node overlay id in
  for i = 0 to Overlay.size overlay - 1 do
    if i <> id then begin
      let n = node overlay i in
      for level = 0 to Array.length n.Node.refs - 1 do
        if Node.has_ref n ~level id then begin
          let consistent =
            level < Path.length n.Node.path
            &&
            let prefix = Path.complement_at n.Node.path level in
            Path.length moved.Node.path >= Path.length prefix
            && Path.is_prefix_of ~prefix moved.Node.path
          in
          if not consistent then begin
            Node.remove_ref n ~level id;
            refill_level rng overlay i level
          end
        end
      done
    end
  done;
  (* The adopted routing table can have empty levels of its own: copying
     the host's references skips [id] itself, so a level whose only
     entry was [id] arrives empty.  Refill those too. *)
  for level = 0 to Array.length moved.Node.refs - 1 do
    refill_level rng overlay id level
  done

(* Make [peer] a fresh replica of [host_id]: adopt path, store and routing
   table, then register with the whole replica group.  [peer]'s previous
   state is discarded (its old group must already have been told). *)
let adopt overlay ~host_id ~peer =
  let host = node overlay host_id in
  let n = node overlay peer in
  Node.clear_store n;
  Node.reset_refs n ~capacity:(Path.length host.Node.path);
  Node.clear_replicas n;
  Node.set_path n host.Node.path;
  ignore (Node.merge_store n ~from:host);
  for level = 0 to Path.length host.Node.path - 1 do
    Node.refs_iter host ~level (fun r -> if r <> peer then Node.add_ref n ~level r)
  done;
  Node.add_replica n host_id;
  Node.absorb_replicas n host.Node.replicas;
  let register rid =
    let r = node overlay rid in
    if r.Node.online then Node.add_replica r peer
  in
  register host_id;
  Intset.iter register host.Node.replicas;
  Overlay.notify overlay (Overlay.Peer_changed peer)

(* Remove [id] from its group's replica lists. *)
let farewell overlay id =
  let n = node overlay id in
  Intset.iter (fun rid -> Node.remove_replica (node overlay rid) id) n.Node.replicas

(* Ascending online member lists of the inhabited partitions, in path
   order — both repair reports and recruit choices must be deterministic
   per seed. *)
let census ?excluding overlay =
  List.filter_map
    (fun { Overlay.members; _ } -> if members = [] then None else Some members)
    (Overlay.census ?excluding overlay)

(* The member list of the partition with the most online peers; size ties
   break toward the first path. *)
let richest_partition overlay ~excluding =
  List.fold_left
    (fun best members ->
      match best with
      | Some b when List.length b >= List.length members -> best
      | _ -> Some members)
    None
    (census ~excluding overlay)

(* --- leave ------------------------------------------------------------------ *)

let leave ?(telemetry = Pgrid_telemetry.Global.get ()) rng overlay id =
  let n = node overlay id in
  if not n.Node.online then 0
  else begin
    let pushed = ref 0 in
    (* A partition must not die with its last member: recruit a stand-in
       from the most-replicated partition before departing (emergency
       replication balancing). *)
    if partition_members overlay n.Node.path ~excluding:id = [] then begin
      match richest_partition overlay ~excluding:id with
      | Some (_ :: _ :: _ as rich) ->
        (* Only partitions that can spare a member qualify. *)
        let recruit = Rng.pick_list rng rich in
        farewell overlay recruit;
        adopt overlay ~host_id:id ~peer:recruit;
        pushed := !pushed + Node.key_count n;
        purge_stale_refs rng overlay recruit
      | _ -> ()
    end;
    let online_replicas =
      List.rev
        (Intset.fold
           (fun acc r -> if (node overlay r).Node.online then r :: acc else acc)
           [] n.Node.replicas)
    in
    (* Push payload-bearing keys the replicas are missing. *)
    Node.fold n
      (fun k payloads () ->
        List.iter
          (fun rid ->
            let r = node overlay rid in
            if Node.responsible_for r k then
              pushed := !pushed + Node.add_postings r k payloads)
          online_replicas)
      ();
    (* Departure announcement: replicas forget the leaver. *)
    farewell overlay id;
    Node.set_online n false;
    if Telemetry.active telemetry then begin
      Telemetry.emit telemetry (Event.Peer_leave { peer = id; pushed = !pushed });
      Telemetry.emit telemetry (Event.Churn_offline { peer = id })
    end;
    !pushed
  end

(* --- join ------------------------------------------------------------------- *)

let join ?(telemetry = Pgrid_telemetry.Global.get ()) rng overlay id ~entry =
  let n = node overlay id in
  if n.Node.online then invalid_arg "Maintenance.join: node already online";
  let anchor = Key.random rng in
  let probe = Overlay.search overlay ~from:entry anchor in
  match probe.Overlay.responsible with
  | None -> None
  | Some host_id ->
    adopt overlay ~host_id ~peer:id;
    Node.set_online n true;
    purge_stale_refs rng overlay id;
    if Telemetry.active telemetry then begin
      Telemetry.emit telemetry (Event.Peer_join { peer = id; hops = probe.Overlay.hops });
      Telemetry.emit telemetry (Event.Churn_online { peer = id })
    end;
    Some probe.Overlay.hops

(* --- repair ------------------------------------------------------------------ *)

type repair_report = {
  dead_refs_dropped : int;
  refs_added : int;
  unfixable_levels : int;
}

let repair ?(telemetry = Pgrid_telemetry.Global.get ()) rng overlay ~redundancy =
  if redundancy < 1 then invalid_arg "Maintenance.repair: redundancy must be >= 1";
  let dropped = ref 0 and added = ref 0 and unfixable = ref 0 in
  for i = 0 to Overlay.size overlay - 1 do
    let n = node overlay i in
    if n.Node.online then
      for level = 0 to Path.length n.Node.path - 1 do
        let prefix_here = Path.complement_at n.Node.path level in
        (* Keep a reference only while its peer is online and still
           provably branches into this level's complement. *)
        let valid r =
          let m = node overlay r in
          m.Node.online
          && (Path.length m.Node.path <= level
             || Path.is_prefix_of ~prefix:prefix_here m.Node.path)
        in
        let alive, dead = List.partition valid (Node.refs_at n ~level) in
        dropped := !dropped + List.length dead;
        if dead <> [] then Node.set_refs n ~level alive;
        if List.length alive < redundancy then begin
          match
            List.filter
              (fun c -> not (List.mem c alive))
              (complement_candidates overlay prefix_here ~excluding:i)
          with
          | [] -> if alive = [] then incr unfixable
          | pool ->
            let arr = Array.of_list pool in
            Rng.shuffle rng arr;
            let want = redundancy - List.length alive in
            Array.iteri
              (fun rank c ->
                if rank < want then begin
                  Node.add_ref n ~level c;
                  incr added
                end)
              arr
        end
      done
  done;
  if Telemetry.active telemetry then
    Telemetry.emit telemetry
      (Event.Repair { dropped = !dropped; added = !added; unfixable = !unfixable });
  { dead_refs_dropped = !dropped; refs_added = !added; unfixable_levels = !unfixable }

(* --- correction on use -------------------------------------------------------- *)

let correct_on_use ?(telemetry = Pgrid_telemetry.Global.get ()) ?dead rng overlay
    ~peer ~level =
  let n = node overlay peer in
  if level < 0 || level >= Array.length n.Node.refs then 0
  else begin
    let refs = Node.refs_at n ~level in
    let stale =
      match dead with
      | Some d -> if List.mem d refs then [ d ] else []
      | None -> List.filter (fun r -> not (node overlay r).Node.online) refs
    in
    List.iter
      (fun r ->
        Node.remove_ref n ~level r;
        Overlay.notify overlay (Overlay.Peer_changed r);
        if Telemetry.active telemetry then
          Telemetry.emit telemetry (Event.Ref_evict { peer; level; target = r }))
      stale;
    refill_level rng overlay peer level;
    List.length stale
  end

(* --- rebalance ----------------------------------------------------------------- *)

type rebalance_report = { migrations : int; rounds : int; final_spread : float }

let spread census =
  match census with
  | [] -> 1.
  | _ ->
    let sizes = List.map List.length census in
    let mx = List.fold_left max 1 sizes and mn = List.fold_left min max_int sizes in
    float_of_int mx /. float_of_int (max 1 mn)

let rebalance ?(telemetry = Pgrid_telemetry.Global.get ()) rng overlay ~n_min ~max_rounds =
  if n_min < 1 then invalid_arg "Maintenance.rebalance: n_min must be >= 1";
  if max_rounds < 0 then invalid_arg "Maintenance.rebalance: negative rounds";
  let migrations = ref 0 in
  let rounds = ref 0 in
  let continue = ref true in
  while !continue && !rounds < max_rounds do
    incr rounds;
    (* Largest first; the stable sort keeps path order among ties. *)
    let sorted =
      List.stable_sort
        (fun a b -> compare (List.length b) (List.length a))
        (census overlay)
    in
    match (sorted, List.rev sorted) with
    | rich :: _, poor :: _
      when List.length rich > n_min
           && List.length rich >= 2 * List.length poor
           && List.length rich > List.length poor + 1 ->
      let mover = Rng.pick_list rng rich in
      let target = Rng.pick_list rng poor in
      farewell overlay mover;
      adopt overlay ~host_id:target ~peer:mover;
      purge_stale_refs rng overlay mover;
      incr migrations
    | _ -> continue := false
  done;
  if Telemetry.active telemetry then
    Telemetry.emit telemetry (Event.Rebalance { migrations = !migrations; rounds = !rounds });
  { migrations = !migrations; rounds = !rounds; final_spread = spread (census overlay) }

(* --- self-healing daemon ------------------------------------------------------ *)

type daemon_config = {
  period : float;
  jitter : float;
  sync_budget : int;
  redundancy : int;
  n_min : int;
  critical : int;
  monitor_period : float;
  balance : Balance.config option;
  txn : Txn.t option;
  admit : (Node.id -> Node.id -> bool) option;
  reconcile : Reconcile.config option;
}

let default_daemon_config ~n_min =
  {
    period = 30.;
    jitter = 0.5;
    sync_budget = 64;
    redundancy = 2;
    n_min;
    critical = 1;
    monitor_period = 60.;
    balance = None;
    txn = None;
    admit = None;
    reconcile = None;
  }

type daemon_stats = {
  mutable ticks : int;
  mutable exchanges : int;
  mutable keys_synced : int;
  mutable levels_refreshed : int;
  mutable refs_evicted : int;
  mutable refs_added : int;
  mutable monitor_runs : int;
  mutable rereplications : int;
  mutable balance_passes : int;
  mutable balance_splits : int;
  mutable balance_retracts : int;
  mutable balance_keys_moved : int;
  mutable recover_passes : int;
  mutable intents_resolved : int;
  mutable reconcile_passes : int;
  mutable divergences_repaired : int;
  mutable tombstones_purged : int;
}

(* Donor for emergency re-replication: the partition with the most
   *alive* members that can spare one (strictly above [n_min]), has an
   online member to recruit, and is not the partition being rescued.
   Alive means online, or offline with a surviving store — graceful
   churners come back, while kills wipe the store, so corpses don't
   count.  Judging donors by online members only would starve the
   rescue path under heavy churn (half the network offline makes every
   partition look too thin to spare anyone).  Deterministic: partitions
   scanned in path order, sizes tie toward the first path.  Returns the
   online-member recruit pool. *)
let donor_partition overlay ~floor ~avoid =
  let tbl = Hashtbl.create 64 in
  for i = Overlay.size overlay - 1 downto 0 do
    let n = node overlay i in
    if n.Node.online || Node.key_count n > 0 then begin
      let key = Path.to_string n.Node.path in
      let online_m, count =
        Option.value ~default:([], 0) (Hashtbl.find_opt tbl key)
      in
      let online_m = if n.Node.online then i :: online_m else online_m in
      Hashtbl.replace tbl key (online_m, count + 1)
    end
  done;
  Hashtbl.fold (fun path v acc -> (path, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.fold_left
       (fun best (path, (online_m, count)) ->
         (* At least two online members: recruiting the donor's only
            online peer would darken the donor's own key range. *)
         match online_m with
         | [] | [ _ ] -> best
         | _ when path = avoid || count <= floor -> best
         | _ -> (
           match best with
           | Some (_, bcount) when bcount >= count -> best
           | _ -> Some (online_m, count)))
       None
  |> Option.map fst

let install_daemon ?(telemetry = Pgrid_telemetry.Global.get ())
    ?(keys = fun () -> [||]) sim rng overlay ~until cfg =
  (* Written so that NaN fails every check. *)
  if not (cfg.period > 0.) then
    invalid_arg "Maintenance.install_daemon: period must be > 0";
  if not (cfg.monitor_period > 0.) then
    invalid_arg "Maintenance.install_daemon: monitor_period must be > 0";
  if not (cfg.jitter >= 0. && cfg.jitter < 1.) then
    invalid_arg "Maintenance.install_daemon: jitter outside [0, 1)";
  if cfg.sync_budget < 0 then invalid_arg "Maintenance.install_daemon: negative budget";
  Option.iter Balance.validate cfg.balance;
  Option.iter
    (fun (r : Reconcile.config) ->
      if not (r.Reconcile.period > 0.) then
        invalid_arg "Maintenance.install_daemon: reconcile period must be > 0";
      if not (r.Reconcile.gc_after >= 0.) then
        invalid_arg "Maintenance.install_daemon: reconcile gc_after must be >= 0")
    cfg.reconcile;
  let stats =
    {
      ticks = 0;
      exchanges = 0;
      keys_synced = 0;
      levels_refreshed = 0;
      refs_evicted = 0;
      refs_added = 0;
      monitor_runs = 0;
      rereplications = 0;
      balance_passes = 0;
      balance_splits = 0;
      balance_retracts = 0;
      balance_keys_moved = 0;
      recover_passes = 0;
      intents_resolved = 0;
      reconcile_passes = 0;
      divergences_repaired = 0;
      tombstones_purged = 0;
    }
  in
  (* The reachability gate: [None] admits every edge via a constant-true
     test applied inside the same scans, so it changes no draw. *)
  let adm =
    match cfg.admit with None -> fun _ _ -> true | Some f -> f
  in
  let next_delay () =
    cfg.period *. (1. +. (cfg.jitter *. ((2. *. Rng.float rng) -. 1.)))
  in
  (* One peer's periodic upkeep: budgeted anti-entropy with one random
     online replica, then a proactive refresh of one random routing
     level (eviction of dead references + top-up to [redundancy]). *)
  let peer_tick i =
    let n = node overlay i in
    if n.Node.online then begin
      stats.ticks <- stats.ticks + 1;
      let partners =
        List.rev
          (Intset.fold
             (fun acc r ->
               if (node overlay r).Node.online && adm i r then r :: acc else acc)
             [] n.Node.replicas)
      in
      (match partners with
      | [] -> ()
      | partners -> (
        let b = Rng.pick_list rng partners in
        match cfg.reconcile with
        | None ->
          let copied =
            Overlay.anti_entropy_pair overlay ~a:i ~b ~budget:cfg.sync_budget
          in
          if copied > 0 then begin
            stats.exchanges <- stats.exchanges + 1;
            stats.keys_synced <- stats.keys_synced + copied;
            if Telemetry.active telemetry then
              Telemetry.emit telemetry (Event.Anti_entropy { a = i; b; copied })
          end
        | Some _ ->
          let r = Reconcile.sync_pair overlay ~a:i ~b ~budget:cfg.sync_budget in
          if r.Reconcile.copied > 0 || r.Reconcile.tombstoned > 0 then begin
            stats.exchanges <- stats.exchanges + 1;
            stats.keys_synced <- stats.keys_synced + r.Reconcile.copied;
            if Telemetry.active telemetry then
              Telemetry.emit telemetry
                (Event.Reconcile_sync
                   {
                     a = i;
                     b;
                     copied = r.Reconcile.copied;
                     tombstoned = r.Reconcile.tombstoned;
                   })
          end));
      let plen = Path.length n.Node.path in
      if plen > 0 then begin
        let level = Rng.int rng plen in
        stats.levels_refreshed <- stats.levels_refreshed + 1;
        (* The refresh is additive.  References to peers that are merely
           offline are kept — graceful churn brings them back, and
           evicting them here would strip the level's diversity down to
           whoever happened to be online at refresh time.  Only a
           completely dark level (no online reference at all) goes
           through correction-on-use, which evicts the dead entries and
           refills; otherwise we just top up *online* coverage to
           [redundancy] from the complement. *)
        let online_refs () =
          Node.refs_fold n ~level
            (fun acc r -> if (node overlay r).Node.online then acc + 1 else acc)
            0
        in
        if online_refs () = 0 && Node.refs_count n ~level > 0 then
          stats.refs_evicted <-
            stats.refs_evicted + correct_on_use ~telemetry rng overlay ~peer:i ~level;
        let have = online_refs () in
        if have < cfg.redundancy then begin
          let prefix = Path.complement_at n.Node.path level in
          match
            List.filter
              (fun c -> (not (Node.has_ref n ~level c)) && adm i c)
              (complement_candidates overlay prefix ~excluding:i)
          with
          | [] -> ()
          | pool ->
            let arr = Array.of_list pool in
            Rng.shuffle rng arr;
            let want = cfg.redundancy - have in
            Array.iteri
              (fun rank c ->
                if rank < want then begin
                  Node.add_ref n ~level c;
                  stats.refs_added <- stats.refs_added + 1
                end)
              arr
        end;
        (* Permanently dead peers (kills) never come back, so offline
           entries are trimmed once the level outgrows its cap — this
           bounds growth without touching the online coverage. *)
        let cap = 2 * (cfg.redundancy + cfg.n_min) in
        let total = Node.refs_count n ~level in
        if total > cap then begin
          let offline =
            List.filter
              (fun r -> not (node overlay r).Node.online)
              (Node.refs_at n ~level)
          in
          let excess = total - cap in
          List.iteri
            (fun rank r ->
              if rank < excess then begin
                Node.remove_ref n ~level r;
                stats.refs_evicted <- stats.refs_evicted + 1
              end)
            offline
        end
      end
    end
  in
  (* Emergency re-replication of a critically thin partition: recruit a
     member from the richest partition that can spare one.  The recruit
     hands its payloads to its former partition first (its mates keep the
     data), then adopts the endangered partition's lowest-id online
     member. *)
  let rereplicate path_s =
    (* Host: the partition member the recruit will copy from.  Prefer
       the lowest-id online member; a completely dark partition falls
       back to the offline member with the most data (killed peers keep
       their path but their store is wiped, so store size separates a
       survivor from a corpse). *)
    let host =
      let rec scan i best_online best_off best_off_size =
        if i >= Overlay.size overlay then
          (match best_online with Some _ -> best_online | None -> best_off)
        else begin
          let n = node overlay i in
          if Path.to_string n.Node.path = path_s then
            if n.Node.online then
              match best_online with
              | Some _ -> scan (i + 1) best_online best_off best_off_size
              | None -> scan (i + 1) (Some i) best_off best_off_size
            else begin
              let size = Node.key_count n in
              if size > best_off_size then scan (i + 1) best_online (Some i) size
              else scan (i + 1) best_online best_off best_off_size
            end
          else scan (i + 1) best_online best_off best_off_size
        end
      in
      scan 0 None None (-1)
    in
    match (host, donor_partition overlay ~floor:(cfg.critical + 1) ~avoid:path_s) with
    | Some host_id, Some donors ->
      let recruit = Rng.pick_list rng donors in
      let r = node overlay recruit in
      (* Hand the recruit's payloads to every *surviving* mate, offline
         ones included (anti-entropy squares them up on reconnect).
         Restricting the handover to online mates could destroy the last
         copy of a key: adopt wipes the recruit's store, and the only
         other holders may be riding out a churn cycle. *)
      let mates =
        let rec collect i acc =
          if i >= Overlay.size overlay then List.rev acc
          else begin
            let m = node overlay i in
            if
              i <> recruit
              && Path.equal m.Node.path r.Node.path
              && (m.Node.online || Node.key_count m > 0)
            then collect (i + 1) (i :: acc)
            else collect (i + 1) acc
          end
        in
        collect 0 []
      in
      (match cfg.reconcile with
      | None ->
        Node.fold r
          (fun k payloads () ->
            List.iter
              (fun mid ->
                let m = node overlay mid in
                if Node.responsible_for m k then
                  ignore (Node.add_postings m k payloads))
              mates)
          ()
      | Some _ ->
        (* Version-aware handover: a mate holding a tombstone at least
           as new as the recruit's copy keeps its delete; live copies
           carry their version so later syncs can still judge them. *)
        Node.fold r
          (fun k payloads () ->
            let km = Node.meta r k in
            List.iter
              (fun mid ->
                let m = node overlay mid in
                if Node.responsible_for m k then begin
                  let cur = Node.meta m k in
                  if Node.newer km cur || not (Node.is_tombstone cur) then begin
                    ignore (Node.add_postings m k payloads);
                    match km with
                    | Some mm when (not mm.Node.dead) && Node.newer km cur ->
                      Node.note_write m k ~version:mm.Node.version ~stamp:mm.Node.stamp
                    | _ -> ()
                  end
                end)
              mates)
          ();
        (* The recruit's tombstones outlive its departure. *)
        Node.meta_fold r
          (fun k mm () ->
            if mm.Node.dead then
              List.iter
                (fun mid ->
                  let m = node overlay mid in
                  if
                    Node.responsible_for m k
                    && not (Node.newer (Node.meta m k) (Some mm))
                  then
                    ignore
                      (Node.entomb m k ~version:mm.Node.version ~stamp:mm.Node.stamp))
                mates)
          ());
      farewell overlay recruit;
      adopt overlay ~host_id ~peer:recruit;
      purge_stale_refs rng overlay recruit;
      stats.rereplications <- stats.rereplications + 1;
      if Telemetry.active telemetry then
        Telemetry.emit telemetry (Event.Re_replicate { path = path_s; peer = recruit })
    | _ -> ()
  in
  (* A key is at risk when every holder is offline.  Copy its payloads
     from an alive offline holder back to the online members of the
     responsible partition, so a later kill of the sleeping holders
     cannot take the last copy with it.  If the whole partition is
     dark there is no online target; the [Trie_incomplete] rescue
     recruits one first and the next tick re-homes the key. *)
  let resurrect key =
    (* Version-aware deployments must not "rescue" a deleted key: when
       the globally newest write for it is a tombstone, the at-risk copy
       is stale, not endangered. *)
    let deleted =
      cfg.reconcile <> None
      &&
      let best = ref None in
      for i = 0 to Overlay.size overlay - 1 do
        let m = Node.meta (node overlay i) key in
        if Node.newer m !best then best := m
      done;
      Node.is_tombstone !best
    in
    if deleted then ()
    else begin
      let holder = ref None in
      for i = 0 to Overlay.size overlay - 1 do
        let n = node overlay i in
        match !holder with
        | Some _ -> ()
        | None -> if Node.has_key n key then holder := Some i
      done;
      match !holder with
      | None -> ()
      | Some h ->
        let payloads = Node.lookup (node overlay h) key in
        for i = 0 to Overlay.size overlay - 1 do
          let n = node overlay i in
          if
            i <> h && n.Node.online
            && Node.responsible_for n key
            && not (Node.has_key n key)
          then begin
            ignore (Node.add_postings n key payloads);
            (if cfg.reconcile <> None then
               match Node.meta (node overlay h) key with
               | Some mm when not mm.Node.dead ->
                 Node.note_write n key ~version:mm.Node.version ~stamp:mm.Node.stamp
               | _ -> ());
            stats.keys_synced <- stats.keys_synced + 1
          end
        done
    end
  in
  (* The inverse rescue, fired on [Resurrected_key]: push the newest
     tombstone back over every stale live copy. *)
  let entomb key =
    let best = ref None in
    for i = 0 to Overlay.size overlay - 1 do
      let m = Node.meta (node overlay i) key in
      if Node.is_tombstone m && Node.newer m !best then best := m
    done;
    match !best with
    | None -> ()
    | Some { version; stamp; _ } ->
      for i = 0 to Overlay.size overlay - 1 do
        let n = node overlay i in
        if n.Node.online then begin
          let stale =
            match Node.meta n key with
            | None -> Node.has_key n key
            | cur -> (not (Node.is_tombstone cur)) && Node.newer !best cur
          in
          if stale then ignore (Node.entomb n key ~version ~stamp)
        end
      done
  in
  let monitor_tick () =
    stats.monitor_runs <- stats.monitor_runs + 1;
    (* With a transaction manager attached, audit the atomicity of its
       settled documents too: committed ones must be fully indexed,
       aborted ones fully scrubbed — anything in between is a
       [Torn_write] the recovery process below has yet to resolve. *)
    let docs =
      match cfg.txn with
      | None -> [||]
      | Some txn ->
        Array.of_list
          (List.map (fun (doc, ks, _) -> (doc, ks)) (Txn.settled_docs txn))
    in
    let report =
      Health.check ~keys:(keys ()) ~docs
        ~versions:(cfg.reconcile <> None)
        ~n_min:cfg.n_min overlay
    in
    Health.emit ~telemetry report;
    (* Surviving membership of one partition: online members plus
       offline ones whose store is intact.  A partition with few
       *online* members is usually just churn noise that resolves
       itself within minutes; a partition with few *alive* members is
       about to lose its data for good.  Rescues fire on the latter. *)
    let alive_of path_s =
      let c = ref 0 in
      for i = 0 to Overlay.size overlay - 1 do
        let n = node overlay i in
        if
          Path.to_string n.Node.path = path_s
          && (n.Node.online || Node.key_count n > 0)
        then incr c
      done;
      !c
    in
    let rescue path = if alive_of path <= cfg.critical then rereplicate path in
    List.iter
      (function
        | Health.Under_replicated { path; online; _ } when online <= cfg.critical ->
          rescue path
        | Health.Trie_incomplete { prefix } ->
          (* Every member is offline, so the partition's whole key range
             is unroutable until someone returns.  Recruit immediately —
             regardless of how many members survive — both to restore
             trie coverage and to save the keys before a kill can finish
             the partition off. *)
          rereplicate prefix
        | Health.Data_at_risk { key; _ } -> resurrect key
        | Health.Resurrected_key { key; _ } -> entomb key
        | _ -> ())
      report.Health.violations
  in
  (* A process first runs a uniform fraction of its period [p] from now
     (drawn at install), then every [p] seconds, or every [next ()]. *)
  let every ?next p f =
    let period = Option.value next ~default:(fun () -> p) in
    Sim.every sim ~at:(Sim.now sim +. (Rng.float rng *. p)) ~until ~period f
  in
  for i = 0 to Overlay.size overlay - 1 do
    every ~next:next_delay cfg.period (fun () -> peer_tick i)
  done;
  every cfg.monitor_period monitor_tick;
  (* The balancing process draws from [rng] only when enabled, and is
     scheduled after every other process, so [balance = None] leaves the
     daemon's draw sequence bit-identical to a build without it. *)
  (match cfg.balance with
  | None -> ()
  | Some bcfg ->
    let run_pass restrict =
      let r = Balance.pass ~telemetry ?restrict rng overlay bcfg in
      stats.balance_passes <- stats.balance_passes + 1;
      stats.balance_splits <- stats.balance_splits + r.Balance.splits;
      stats.balance_retracts <- stats.balance_retracts + r.Balance.retracts;
      stats.balance_keys_moved <-
        stats.balance_keys_moved + r.Balance.migrated_keys + r.Balance.copied_keys
    in
    every bcfg.Balance.period (fun () ->
        match cfg.admit with
        | None -> run_pass None
        | Some f ->
          (* Under an admission filter each reachability island balances
             on its own view, like the real sides of a partition would.
             The lowest online id anchors one island; whoever it cannot
             reach forms the other.  (Two islands cover every fault this
             repo injects; a finer cut still balances — stragglers just
             wait for heal.)  With the network whole the first island is
             everyone and the single pass degenerates to the unrestricted
             one. *)
          let r0 = ref (-1) in
          (try
             for i = 0 to Overlay.size overlay - 1 do
               if (node overlay i).Node.online then begin
                 r0 := i;
                 raise Exit
               end
             done
           with Exit -> ());
          if !r0 >= 0 then begin
            let a = !r0 in
            let in_a i = i = a || f a i in
            let split = ref false in
            for i = 0 to Overlay.size overlay - 1 do
              if (node overlay i).Node.online && not (in_a i) then split := true
            done;
            run_pass (Some in_a);
            if !split then run_pass (Some (fun i -> not (in_a i)))
          end));
  (* Transaction recovery rides the monitor period: replay online intent
     logs against the decision log, presumed-aborting stale pendings.
     Like balancing, the process is gated and scheduled last, so
     [txn = None] leaves the daemon's draw sequence bit-identical. *)
  (match cfg.txn with
  | None -> ()
  | Some txn ->
    every cfg.monitor_period (fun () ->
        let resolved = Txn.recover_pass txn in
        stats.recover_passes <- stats.recover_passes + 1;
        stats.intents_resolved <- stats.intents_resolved + resolved));
  (* Reconciliation rides its own period: deterministic structural
     repair (only once the network is whole again — mid-partition the
     islands cannot see each other's splits, so "repairing" them would
     cheat), then tombstone GC.  Gated and scheduled last, so
     [reconcile = None] leaves the daemon's draw sequence
     bit-identical. *)
  (match cfg.reconcile with
  | None -> ()
  | Some rcfg ->
    let whole () =
      match cfg.admit with
      | None -> true
      | Some f ->
        let ok = ref true in
        let r0 = ref (-1) in
        for i = 0 to Overlay.size overlay - 1 do
          if (node overlay i).Node.online then
            if !r0 < 0 then r0 := i
            else if not (f !r0 i) then ok := false
        done;
        !ok
    in
    every rcfg.Reconcile.period (fun () ->
        stats.reconcile_passes <- stats.reconcile_passes + 1;
        if whole () then begin
          let repaired = Reconcile.repair_structure ~telemetry rcfg overlay in
          stats.divergences_repaired <- stats.divergences_repaired + repaired
        end;
        let purged = Reconcile.gc rcfg overlay ~now:(Sim.now sim) in
        if purged > 0 then begin
          stats.tombstones_purged <- stats.tombstones_purged + purged;
          if Telemetry.active telemetry then
            Telemetry.emit telemetry (Event.Reconcile_gc { peer = -1; purged })
        end));
  stats
