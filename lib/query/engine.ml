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

(* The cached walk mirrors [Overlay.search] hop for hop when every probe
   misses — [Overlay.forward] is the same step, consuming the same RNG
   draws — so the cache-off arm of an experiment is exactly the paper's
   search.  Cache probes graft onto each visited node:

   - result hit: the answer is served where the query stands; no
     further hops.
   - route hit: one hop straight to the validated responsible peer.
   - stale: the remembered peer failed validation.  The wasted contact
     costs one hop and the walk falls back to normal routing from the
     same node — a stale entry can slow a query down, never corrupt it.

   Every node the walk visits learns the final answer ([Qcache.learn]),
   so hot partitions populate the caches of the peers that actually
   forward traffic, not just the origins.  Without a cache nothing
   learns, so the walk keeps no [visited] list. *)
let lookup ?(telemetry = Pgrid_telemetry.Global.get ()) ?cache overlay ~from key =
  let fail ?at hops stale =
    {
      responsible = None;
      hops;
      key_present = false;
      payloads = [];
      served = Network;
      stale;
      dead_end = at;
    }
  in
  let visited = ref [] in
  let learn_all ~target ~present ~payloads =
    match cache with
    | None -> ()
    | Some c ->
      List.iter
        (fun at -> Qcache.learn c ~at ~key ~target ~present ~payloads)
        !visited
  in
  let finish ~target ~hops ~stale ~served ~present ~payloads =
    learn_all ~target ~present ~payloads;
    {
      responsible = Some target;
      hops;
      key_present = present;
      payloads;
      served;
      stale;
      dead_end = None;
    }
  in
  (* [Node.responsible_for] is the O(1) test for "no divergence level",
     so the level itself is computed once per hop, by the forward. *)
  let rec go cur hops stale =
    if hops > Overlay.max_hops then fail hops stale
    else if Node.responsible_for cur key then
      finish ~target:cur.Node.id ~hops ~stale ~served:Network
        ~present:(Node.has_key cur key) ~payloads:(Node.lookup cur key)
    else
      match cache with
      | None -> step cur hops stale
      | Some c -> (
        match Qcache.probe c ~at:cur.Node.id key with
        | Qcache.Hit_result { target; present; payloads } ->
          if Telemetry.active telemetry then
            Telemetry.emit telemetry
              (Event.Cache_hit { peer = cur.Node.id; cache = Event.Result });
          finish ~target ~hops ~stale ~served:Result_cache ~present ~payloads
        | Qcache.Hit_route target ->
          if Telemetry.active telemetry then
            Telemetry.emit telemetry
              (Event.Cache_hit { peer = cur.Node.id; cache = Event.Route });
          let n = Overlay.node overlay target in
          finish ~target ~hops:(hops + 1) ~stale ~served:Route_cache
            ~present:(Node.has_key n key) ~payloads:(Node.lookup n key)
        | Qcache.Stale target ->
          if Telemetry.active telemetry then
            Telemetry.emit telemetry
              (Event.Cache_stale { peer = cur.Node.id; target });
          step cur (hops + 1) (stale + 1)
        | Qcache.Miss ->
          if Telemetry.active telemetry then
            Telemetry.emit telemetry (Event.Cache_miss { peer = cur.Node.id });
          step cur hops stale)
  and step cur hops stale =
    match Overlay.forward overlay cur key with
    | `Responsible ->
      finish ~target:cur.Node.id ~hops ~stale ~served:Network
        ~present:(Node.has_key cur key) ~payloads:(Node.lookup cur key)
    | `Dead_end level -> fail ~at:(cur.Node.id, level) hops stale
    | `Next id ->
      (match cache with Some _ -> visited := cur.Node.id :: !visited | None -> ());
      go (Overlay.node overlay id) (hops + 1) stale
  in
  let origin = Overlay.node overlay from in
  if origin.Node.online then go origin 0 0 else fail 0 0

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
   had each key walked alone (the sum of resolution depths). *)
let lookup_many ?cache overlay ~from keys =
  let keys = Array.of_list keys in
  let count = Array.length keys in
  let results = Array.make count None in
  let messages = ref 0 in
  let resolve i ~target ~depth ~served ~present =
    results.(i) <-
      Some
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
              let present = Node.has_key cur k in
              (match cache with
              | None -> ()
              | Some c ->
                List.iter
                  (fun at ->
                    Qcache.learn c ~at ~key:k ~target:cur.Node.id ~present
                      ~payloads:(Node.lookup cur k))
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
              | `Responsible -> ()
              | `Dead_end _ -> ()
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
  let items =
    Array.mapi
      (fun i r ->
        match r with
        | Some item -> item
        | None ->
          {
            bkey = keys.(i);
            bresponsible = None;
            bpresent = false;
            bdepth = 0;
            bserved = Network;
          })
      results
  in
  let naive = ref 0 and unresolved = ref 0 in
  Array.iter
    (fun item ->
      if item.bresponsible = None then incr unresolved
      else naive := !naive + item.bdepth)
    items;
  { items; messages = !messages; naive_messages = !naive; unresolved = !unresolved }
