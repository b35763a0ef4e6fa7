module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

type violation =
  | Ref_integrity of { peer : Node.id; level : int }
  | Trie_incomplete of { prefix : Path.t }
  | Under_replicated of { path : Path.t; online : int; required : int }
  | Data_at_risk of { key : Key.t; holders : int }
  | Data_lost of { key : Key.t }
  | Torn_write of { doc : string; present : int; total : int }
  | Resurrected_key of { key : Key.t; holders : int }
  | Diverged_partition of { prefix : Path.t; descendants : int }

type report = {
  violations : violation list;
  ref_integrity : int;
  trie_incomplete : int;
  under_replicated : int;
  at_risk : int;
  lost : int;
  torn : int;
  resurrected : int;
  diverged : int;
  tombstone_debt : int;
  online : int;
  partitions : int;
  tracked_keys : int;
  score : float;
}

let node = Overlay.node

(* The copies of one key the durability pass has seen: online, and in
   all. *)
type holding = { mutable on : int; mutable total : int }

let check ?(keys = [||]) ?(docs = [||]) ?(versions = false) ~n_min overlay =
  if n_min < 1 then invalid_arg "Health.check: n_min must be >= 1";
  (* The census covers every node, online or not: a partition whose
     members are all offline is dark, not gone. *)
  let parts = Overlay.census overlay in
  (* Replication and trie completeness, per populated partition. *)
  let trie = ref [] and under = ref [] in
  let rep_sum = ref 0. in
  List.iter
    (fun { Overlay.path; members; _ } ->
      let on = List.length members in
      rep_sum := !rep_sum +. Float.min 1. (float_of_int on /. float_of_int n_min);
      if on = 0 then trie := Trie_incomplete { prefix = path } :: !trie
      else if on < n_min then
        under := Under_replicated { path; online = on; required = n_min } :: !under)
    parts;
  (* Referential integrity: an online node must hold an online reference
     at every level whose complement an online node inhabits, at, below
     or above it ([Overlay.inhabited_around]). *)
  let refv = ref [] in
  let levels_checked = ref 0 in
  for i = 0 to Overlay.size overlay - 1 do
    let n = node overlay i in
    if n.Node.online then
      for level = 0 to Path.length n.Node.path - 1 do
        incr levels_checked;
        let live =
          Node.refs_fold n ~level
            (fun acc r -> acc || (node overlay r).Node.online)
            false
        in
        let complement = Path.complement_at n.Node.path level in
        if (not live) && Overlay.inhabited_around overlay complement then
          refv := Ref_integrity { peer = i; level } :: !refv
      done
  done;
  (* Data durability: one pass over all stores, then compare with the
     tracked key set.  The same pass collects (key, payload) presence for
     the keys named by tracked multi-key documents, so atomicity can be
     judged without a second sweep. *)
  let doc_keys = Hashtbl.create 64 in
  Array.iter (fun (_, ks) -> Array.iter (fun k -> Hashtbl.replace doc_keys k ()) ks) docs;
  let postings = Hashtbl.create 256 in
  let holders : (Key.t, holding) Hashtbl.t = Hashtbl.create 256 in
  Overlay.iter overlay (fun n ->
      Node.fold n
        (fun k payloads () ->
          let h =
            match Hashtbl.find_opt holders k with
            | Some h -> h
            | None ->
              let h = { on = 0; total = 0 } in
              Hashtbl.add holders k h;
              h
          in
          if n.Node.online then h.on <- h.on + 1;
          h.total <- h.total + 1;
          if Hashtbl.mem doc_keys k then
            List.iter (fun p -> Hashtbl.replace postings (k, p) ()) payloads)
        ());
  let lostv = ref [] in
  Array.iter
    (fun k -> if not (Hashtbl.mem holders k) then lostv := Data_lost { key = k } :: !lostv)
    keys;
  let riskv = ref [] in
  Hashtbl.iter
    (fun k h -> if h.on = 0 then riskv := Data_at_risk { key = k; holders = h.total } :: !riskv)
    holders;
  (* Atomicity: a settled document must be indexed under all of its keys
     or none of them — a strict subset is a torn write.  Holders online
     or offline both count: like [Data_lost], this judges durable state,
     not momentary reachability. *)
  let tornv = ref [] in
  Array.iter
    (fun (doc, ks) ->
      let total = Array.length ks in
      if total > 0 then begin
        let present =
          Array.fold_left
            (fun acc k -> if Hashtbl.mem postings (k, doc) then acc + 1 else acc)
            0 ks
        in
        if present > 0 && present < total then
          tornv := Torn_write { doc; present; total } :: !tornv
      end)
    docs;
  (* Split-brain audits, behind [versions]: they read the write-version
     sidecar, which only reconciliation-aware deployments maintain
     meaningfully, and the legacy report stays bit-identical without
     them. *)
  let resv = ref [] and divv = ref [] and debt = ref 0 in
  if versions then begin
    (* Globally newest write per key over online peers, by the sync
       vote's rule ([Node.newer]). *)
    let newest = Hashtbl.create 256 in
    Overlay.iter overlay (fun n ->
        if n.Node.online then begin
          debt := !debt + Node.tombstone_count n;
          Node.meta_fold n
            (fun k m () ->
              if Node.newer (Some m) (Hashtbl.find_opt newest k) then
                Hashtbl.replace newest k m)
            ()
        end);
    Hashtbl.iter
      (fun k (m : Node.meta) ->
        if m.dead then
          match Hashtbl.find_opt holders k with
          | Some h when h.on > 0 ->
            resv := Resurrected_key { key = k; holders = h.on } :: !resv
          | _ -> ())
      newest;
    (* Structural divergence: an online-inhabited path that is a strict
       prefix of another (two islands split the same path while apart);
       those follow it in its subtree's slots. *)
    for i = 0 to Overlay.partitions overlay - 1 do
      let { Overlay.path = prefix; members; _ } = Overlay.partition overlay i in
      if members <> [] then begin
        let _, past = Overlay.subtree overlay prefix in
        let descendants = ref 0 in
        for j = i + 1 to past - 1 do
          if (Overlay.partition overlay j).Overlay.members <> [] then incr descendants
        done;
        if !descendants > 0 then
          divv := Diverged_partition { prefix; descendants = !descendants } :: !divv
      end
    done
  end;
  let by_key a b =
    match (a, b) with
    | Data_at_risk { key = x; _ }, Data_at_risk { key = y; _ }
    | Data_lost { key = x }, Data_lost { key = y }
    | Resurrected_key { key = x; _ }, Resurrected_key { key = y; _ } ->
      Key.compare x y
    | _ -> 0
  in
  let by_peer a b =
    match (a, b) with
    | Ref_integrity x, Ref_integrity y ->
      if x.peer <> y.peer then compare x.peer y.peer else compare x.level y.level
    | _ -> 0
  in
  let by_doc a b =
    match (a, b) with
    | Torn_write { doc = x; _ }, Torn_write { doc = y; _ } -> compare x y
    | _ -> 0
  in
  let by_prefix a b =
    match (a, b) with
    | Diverged_partition { prefix = x; _ }, Diverged_partition { prefix = y; _ } ->
      Path.compare x y
    | _ -> 0
  in
  let trie = List.rev !trie
  and under = List.rev !under
  and refv = List.sort by_peer !refv
  and riskv = List.sort by_key !riskv
  and lostv = List.sort by_key !lostv
  and tornv = List.sort by_doc !tornv
  and resv = List.sort by_key !resv
  and divv = List.sort by_prefix !divv in
  let ref_integrity = List.length refv
  and trie_incomplete = List.length trie
  and under_replicated = List.length under
  and at_risk = List.length riskv
  and lost = List.length lostv
  and torn = List.length tornv
  and resurrected = List.length resv
  and diverged = List.length divv in
  let partitions = List.length parts in
  let tracked_keys = Hashtbl.length holders + lost in
  (* Weighted score: data durability dominates, then replication and
     routing, then trie coverage.  Each component is the fraction of its
     invariant that holds.  A torn document weighs like a lost key; with
     no tracked documents the formula reduces to the pre-txn score. *)
  let frac num den = 1. -. (num /. float_of_int (max 1 den)) in
  let data_ok =
    frac
      (float_of_int lost +. (0.5 *. float_of_int at_risk) +. float_of_int torn)
      (tracked_keys + Array.length docs)
  in
  let rep_ok = if partitions = 0 then 1. else !rep_sum /. float_of_int partitions in
  let ref_ok = frac (float_of_int ref_integrity) !levels_checked in
  let trie_ok = frac (float_of_int trie_incomplete) partitions in
  let score =
    (0.35 *. data_ok) +. (0.25 *. rep_ok) +. (0.25 *. ref_ok) +. (0.15 *. trie_ok)
  in
  {
    violations = refv @ trie @ under @ riskv @ lostv @ tornv @ resv @ divv;
    ref_integrity;
    trie_incomplete;
    under_replicated;
    at_risk;
    lost;
    torn;
    resurrected;
    diverged;
    tombstone_debt = !debt;
    online = Overlay.online_count overlay;
    partitions;
    tracked_keys;
    score;
  }

let score ?keys ?docs ~n_min overlay = (check ?keys ?docs ~n_min overlay).score

let emit ?(telemetry = Pgrid_telemetry.Global.get ()) r =
  if Telemetry.active telemetry then
    Telemetry.emit telemetry
      (Event.Health_report
         {
           ref_integrity = r.ref_integrity;
           trie_incomplete = r.trie_incomplete;
           under_replicated = r.under_replicated;
           at_risk = r.at_risk;
           lost = r.lost;
           torn = r.torn;
           score = r.score;
         })
