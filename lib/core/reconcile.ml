module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

type config = {
  gc_after : float;
  sync_budget : int;
  seed_refs : int;
  period : float;
}

let default_config =
  { gc_after = 3600.; sync_budget = 200; seed_refs = 4; period = 120. }

type sync_result = { copied : int; tombstoned : int }

(* Union of both nodes' known keys — store and sidecar, so pure
   tombstones participate. *)
let known_keys na nb =
  let seen = Hashtbl.create 64 in
  let note k _ () = if not (Hashtbl.mem seen k) then Hashtbl.replace seen k () in
  Node.fold na note ();
  Node.fold nb note ();
  Node.meta_fold na note ();
  Node.meta_fold nb note ();
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

let sync_pair t ~a ~b ~budget =
  if budget < 0 then invalid_arg "Reconcile.sync_pair: negative budget";
  if a = b then { copied = 0; tombstoned = 0 }
  else begin
    let na = Overlay.node t a and nb = Overlay.node t b in
    if
      (not na.Node.online)
      || (not nb.Node.online)
      || not (Path.equal na.Node.path nb.Node.path)
    then { copied = 0; tombstoned = 0 }
    else begin
      let copied = ref 0 and tombstoned = ref 0 in
      let copy_payloads src dst key =
        (* Ensure key presence even when payload-less (construction seeds
           keys without postings), then fill missing postings. *)
        if Node.has_key src key && not (Node.has_key dst key) then begin
          Node.ensure_key dst key;
          incr copied
        end;
        List.iter
          (fun p ->
            if !copied < budget && Node.insert_new dst key p then incr copied)
          (Node.lookup src key)
      in
      let entomb n key (m : Node.meta) =
        if Node.entomb n key ~version:m.version ~stamp:m.stamp then incr tombstoned
      in
      let note_write n key (m : Node.meta) =
        Node.note_write n key ~version:m.version ~stamp:m.stamp
      in
      (try
         List.iter
           (fun key ->
             if !copied >= budget then raise Exit;
             let ma = Node.meta na key and mb = Node.meta nb key in
             (* One version names one write, so equal entries are equal
                and a tie may go to either side. *)
             let win, win_n, lose_n =
               if Node.newer mb ma then (mb, nb, na) else (ma, na, nb)
             in
             match win with
             | Some w when w.dead ->
               (* Newest write is a delete: it erases every stale copy on
                  both sides and leaves the tombstone everywhere. *)
               entomb na key w;
               entomb nb key w
             | _ ->
               if Node.is_tombstone ma || Node.is_tombstone mb then
                 (* A write strictly newer than the tombstone: the key is
                    legitimately back; clear the tombstone and copy. *)
                 copy_payloads win_n lose_n key
               else begin
                 (* Both alive: inserts are additive, so the union is the
                    newest state regardless of which side wrote last. *)
                 copy_payloads na nb key;
                 copy_payloads nb na key
               end;
               Option.iter
                 (fun w ->
                   note_write na key w;
                   note_write nb key w)
                 win)
           (known_keys na nb)
       with Exit -> ());
      Node.add_replica na b;
      Node.add_replica nb a;
      { copied = !copied; tombstoned = !tombstoned }
    end
  end

let gc cfg t ~now =
  let horizon = now -. cfg.gc_after in
  let purged = ref 0 in
  Overlay.iter t (fun n ->
      if n.Node.online then
        purged := !purged + Node.purge_tombstones n ~horizon);
  !purged

let tombstone_debt t =
  let debt = ref 0 in
  Overlay.iter t (fun n ->
      if n.Node.online then debt := !debt + Node.tombstone_count n);
  !debt

(* --- structural divergence ---------------------------------------------- *)

(* Two islands that split the same path independently leave, after heal,
   an inhabited path with inhabited strict descendants: queries for a key
   under the short path race between the straggler and the deeper
   specialist, and each holds keys the other believes it owns.  A
   conflict is repaired by completing the split deterministically: every
   peer still at the short path is demoted into one child (the empty one
   if a child is uninhabited, else the thinner one, ties to "0"), after
   copying each key and tombstone it would orphan to the online peers
   responsible for it on the other side. *)

(* In census order a path's strict descendants directly follow it, so a
   path has an inhabited one exactly when its inhabited successor extends
   it. *)
let conflicts t =
  let rec scan acc = function
    | p :: (q :: _ as rest) ->
      scan (if Path.is_prefix_of ~prefix:p q then p :: acc else acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  scan []
    (List.filter_map
       (fun { Overlay.path; members; _ } -> if members = [] then None else Some path)
       (Overlay.census t))

let repair_structure ?(telemetry = Pgrid_telemetry.Global.get ()) cfg t =
  let conflict_paths = conflicts t in
  List.iter
    (fun p ->
      let level = Path.length p in
      let members = ref [] and n0 = ref 0 and n1 = ref 0 in
      Overlay.iter t (fun n ->
          if n.Node.online then
            if Path.equal n.Node.path p then members := n :: !members
            else if
              Path.length n.Node.path > level
              && Path.is_prefix_of ~prefix:p n.Node.path
            then if Path.bit n.Node.path level = 0 then incr n0 else incr n1);
      let members = List.rev !members in
      if members <> [] then begin
        let bit =
          if !n0 = 0 then 0 else if !n1 = 0 then 1 else if !n0 <= !n1 then 0 else 1
        in
        let target = Path.extend p bit in
        let moved = ref 0 in
        (* Online peers on the other side of the completed split, by
           increasing id so the repair is deterministic. *)
        let others = ref [] in
        Overlay.iter t (fun n ->
            if
              n.Node.online
              && Path.length n.Node.path > level
              && Path.is_prefix_of ~prefix:p n.Node.path
              && Path.bit n.Node.path level = 1 - bit
            then others := n :: !others);
        let others = List.rev !others in
        List.iter
          (fun m ->
            (* Re-home everything the demotion would orphan. *)
            List.iter
              (fun k ->
                if not (Path.matches_key target k) then begin
                  let meta = Node.meta m k in
                  List.iter
                    (fun r ->
                      if Node.responsible_for r k then begin
                        ignore (Node.add_postings r k (Node.lookup m k));
                        Option.iter
                          (fun (mm : Node.meta) ->
                            Node.note_write r k ~version:mm.version ~stamp:mm.stamp)
                          meta
                      end)
                    others;
                  incr moved
                end)
              (Node.keys m);
            (* Orphaned tombstones travel too — a delete must survive the
               repair as surely as a put. *)
            Node.meta_fold m
              (fun k mm () ->
                if mm.Node.dead && not (Path.matches_key target k) then
                  List.iter
                    (fun r ->
                      if Node.responsible_for r k then
                        ignore
                          (Node.entomb r k ~version:mm.Node.version ~stamp:mm.Node.stamp))
                    others)
              ();
            Node.set_path m target;
            Overlay.notify t (Overlay.Peer_changed m.Node.id);
            ignore (Node.drop_keys_outside m target))
          members;
        (* Complete the routing structure at the new level: demoted peers
           and the other side reference each other, and the demoted peers
           form a replica group with whoever already sits exactly at the
           target path. *)
        let seed = ref 0 in
        List.iter
          (fun r ->
            List.iter (fun m -> Node.add_ref r ~level m.Node.id) members;
            if !seed < cfg.seed_refs then begin
              List.iter (fun m -> Node.add_ref m ~level r.Node.id) members;
              incr seed
            end)
          others;
        let mates = ref [] in
        Overlay.iter t (fun n ->
            if n.Node.online && Path.equal n.Node.path target then
              mates := n :: !mates);
        List.iter
          (fun m ->
            List.iter
              (fun n ->
                Node.add_replica m n.Node.id;
                Node.add_replica n m.Node.id)
              !mates)
          members;
        Telemetry.emit telemetry
          (Event.Reconcile_repair
             {
               path = Path.to_string p;
               demoted = List.length members;
               moved = !moved;
             })
      end)
    conflict_paths;
  List.length conflict_paths
