module Key = Pgrid_keyspace.Key
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

type served = Network | Result_cache | Route_cache

type outcome = {
  responsible : int option;
  hops : int;
  key_present : bool;
  payloads : string list;
  served : served;
  stale : int;
  dead_end : (int * int) option;
}

let outcome ~stale ~dead_end responsible hops key_present payloads served =
  { responsible; hops; key_present; payloads; served; stale; dead_end }

(* One [Overlay.walk] on the overlay's own generator: without a cache
   it is [Overlay.search].  With one, [visit] probes each peer the walk
   would forward from.  A result hit answers there; a route hit costs
   one hop to the validated responsible peer; a stale entry costs one
   wasted hop, then the walk forwards from the same peer, so it can slow
   a query down, never corrupt it.  Every peer the walk forwarded from
   learns the answer, so the caches of the peers that carry traffic
   fill, not just the origins'. *)
let lookup ?(telemetry = Pgrid_telemetry.Global.get ()) ?cache overlay ~from key =
  let visited = ref [] and stale = ref 0 in
  let visit =
    match cache with
    | None -> fun _ -> Overlay.Forward
    | Some c -> (
      fun cur ->
        let peer = cur.Node.id in
        match Qcache.probe c ~at:peer key with
        | Qcache.Hit_result { target; present; payloads } ->
          if Telemetry.active telemetry then
            Telemetry.emit telemetry (Event.Cache_hit { peer; cache = Event.Result });
          Overlay.Stop (Result_cache, target, present, payloads)
        | Qcache.Hit_route target ->
          if Telemetry.active telemetry then
            Telemetry.emit telemetry (Event.Cache_hit { peer; cache = Event.Route });
          let found = Node.lookup_opt (Overlay.node overlay target) key in
          Overlay.Stop
            (Route_cache, target, Option.is_some found, Option.value found ~default:[])
        | Qcache.Stale target ->
          if Telemetry.active telemetry then
            Telemetry.emit telemetry (Event.Cache_stale { peer; target });
          visited := peer :: !visited;
          incr stale;
          Overlay.Forward_charged
        | Qcache.Miss ->
          if Telemetry.active telemetry then
            Telemetry.emit telemetry (Event.Cache_miss { peer });
          visited := peer :: !visited;
          Overlay.Forward)
  in
  let origin = Overlay.node overlay from in
  (* An offline origin has no budget: it fails at once, with 0 hops. *)
  let budget = if origin.Node.online then Overlay.max_hops + 1 else 0 in
  let w = Overlay.walk overlay (Overlay.rng overlay) origin key ~budget ~visit in
  let answer served target present payloads =
    (match cache with
    | None -> ()
    | Some c ->
      List.iter (fun at -> Qcache.learn c ~at ~key ~target ~present ~payloads) !visited);
    (* A route jump is the one hop the walk did not count. *)
    let hops = if served = Route_cache then w.hops + 1 else w.hops in
    outcome ~stale:!stale ~dead_end:None (Some target) hops present payloads served
  in
  match w.stop with
  | Overlay.Responsible ->
    let found = Node.lookup_opt w.at key in
    answer Network w.at.Node.id (Option.is_some found) (Option.value found ~default:[])
  | Overlay.Stopped (served, target, present, payloads) -> answer served target present payloads
  | Overlay.Dead_end level ->
    outcome ~stale:!stale ~dead_end:(Some (w.at.Node.id, level)) None w.hops false [] Network
  | Overlay.Spent -> outcome ~stale:!stale ~dead_end:None None w.hops false [] Network

type batch_item = {
  bkey : Key.t;
  bresponsible : int option;
  bpresent : bool;
  bdepth : int;
  bserved : served;
}

type batch = {
  items : batch_item array;
  messages : int;
  naive_messages : int;
  unresolved : int;
}

(* Concurrent lookups from one origin share their walk: at each node,
   keys the node is responsible for (or whose answer sits in its result
   cache) peel off, and the rest bucket by divergence level — every key
   in a bucket belongs to the same complement subtree, so one forwarded
   message carries the whole bucket and the fan-out happens exactly
   where the key paths diverge.  [messages] counts forwards actually
   sent; [naive_messages] is what the same resolutions would have cost
   had each key walked alone (the sum of resolution depths).  Not an
   [Overlay.walk]: the shared walk forks at every divergence level, so
   it takes one [forward] step per bucket. *)
let lookup_many ?cache overlay ~from keys =
  let keys = Array.of_list keys in
  let count = Array.length keys in
  let items =
    Array.map
      (fun bkey ->
        { bkey; bresponsible = None; bpresent = false; bdepth = 0; bserved = Network })
      keys
  in
  let messages = ref 0 in
  let resolve i ~target ~depth ~served ~present =
    items.(i) <-
      {
        bkey = keys.(i);
        bresponsible = Some target;
        bpresent = present;
        bdepth = depth;
        bserved = served;
      }
  in
  let rec walk cur depth trail pending =
    if depth > Overlay.max_hops then ()
    else begin
      let remaining =
        List.filter
          (fun i ->
            let k = keys.(i) in
            match Overlay.divergence_level cur.Node.path k with
            | None ->
              let found = Node.lookup_opt cur k in
              let present = Option.is_some found in
              (match cache with
              | None -> ()
              | Some c ->
                let payloads = Option.value found ~default:[] in
                List.iter
                  (fun at -> Qcache.learn c ~at ~key:k ~target:cur.Node.id ~present ~payloads)
                  trail);
              resolve i ~target:cur.Node.id ~depth ~served:Network ~present;
              false
            | Some _ -> (
              match cache with
              | None -> true
              | Some c -> (
                (* Only the result cache can answer inside a batch; a
                   route jump would fragment the shared walk. *)
                match Qcache.probe_results c ~at:cur.Node.id k with
                | Qcache.Hit_result { target; present; _ } ->
                  resolve i ~target ~depth ~served:Result_cache ~present;
                  false
                | Qcache.Hit_route _ | Qcache.Stale _ | Qcache.Miss -> true)))
          pending
      in
      if remaining <> [] then begin
        (* Bucket by divergence level; iterate levels in ascending order
           so the forwarding sequence (and its RNG draws) is
           deterministic. *)
        let buckets = Hashtbl.create 8 in
        List.iter
          (fun i ->
            match Overlay.divergence_level cur.Node.path keys.(i) with
            | None -> ()
            | Some l ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt buckets l) in
              Hashtbl.replace buckets l (i :: prev))
          remaining;
        let levels = List.sort compare (Hashtbl.fold (fun l _ acc -> l :: acc) buckets []) in
        List.iter
          (fun l ->
            let group = List.rev (Hashtbl.find buckets l) in
            match group with
            | [] -> ()
            | rep :: _ -> (
              match Overlay.forward overlay cur keys.(rep) with
              | `Responsible | `Dead_end _ -> ()
              | `Next id ->
                incr messages;
                walk (Overlay.node overlay id) (depth + 1)
                  (cur.Node.id :: trail) group))
          levels
      end
    end
  in
  let origin = Overlay.node overlay from in
  if origin.Node.online && count > 0 then
    walk origin 0 [] (List.init count Fun.id);
  let resolved = List.filter (fun it -> it.bresponsible <> None) (Array.to_list items) in
  let naive = List.fold_left (fun acc it -> acc + it.bdepth) 0 resolved in
  let unresolved = count - List.length resolved in
  { items; messages = !messages; naive_messages = naive; unresolved }
