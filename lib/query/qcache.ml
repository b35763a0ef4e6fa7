module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

(* Every peer's route and result caches share one arena of slots and
   one hash table keyed by (list, key), so that a probe, a recency bump
   and a refresh allocate nothing and the heap holds no block per entry
   and none per peer.  At the query-storm scale (millions of probes,
   about a million live entries) both the allocation and the pointer
   chasing of boxed entries cost more than the hops the cache saves.

   List [2 * peer] is a peer's route cache and [2 * peer + 1] its result
   cache: a bounded LRU list of slots, newest to oldest through the
   [older]/[newer] links.  The arena grows by whole chunks, so growth
   never copies a live slot.  Slot 0 is the nil of the links, the hash
   chains and the free list; it is never handed out. *)

(* A slot is [stride] ints from [(slot mod chunk_slots) * stride] in its
   chunk, the middle three packing two fields each:
     - the key (a [Path.code] for a route, [Key.to_int] for a result);
     - the list id and the next slot in the same bucket, or in the free
       list (list -1 while the slot is free);
     - the older and the newer neighbour in the list;
     - the target peer and [aux]: a route's path length, a result's
       presence;
     - the stamp: the invalidation clock when the entry was learned.
   Validity is stamped, so invalidation never walks the caches.  Every
   invalidation ticks one clock and records the tick where it applies:
   on the peer ([Peer_changed]), on the key ([Key_written]) or for the
   whole cache ([Flush]).  An entry is retired once any record that
   applies to it is later than its stamp.  Slot ids and list ids must
   fit in 31 bits, so peer ids in 30. *)
let f_key = 0
let f_link = 1 (* list | chain *)
let f_lru = 2 (* older | newer *)
let f_entry = 3 (* target | aux *)
let f_stamp = 4
let stride = 5
let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1
let aux_bits = 8
let max_peers = 1 lsl (slot_bits - 1)
let chunk_bits = 11
let chunk_slots = 1 lsl chunk_bits
let max_chunks = (slot_mask + 1) / chunk_slots

(* Route entries per path length, per peer. *)
let lens = Key.bits + 1

type stats = {
  route_hits : int;
  result_hits : int;
  misses : int;
  stale : int;
  invalidations : int;
  evictions : int;
  route_entries : int;
  result_entries : int;
}

type counters = {
  mutable c_route_hits : int;
  mutable c_result_hits : int;
  mutable c_misses : int;
  mutable c_stale : int;
  mutable c_invalidations : int;
  mutable c_evictions : int;
}

(* [Hashtbl] picks a bucket by the hash's low bits, which keys made from
   floats leave zero, so the hash must mix. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = {
  overlay : Overlay.t;
  telemetry : Telemetry.t;
  route_cap : int;
  result_cap : int;
  mutable chunks : int array array;  (* [chunk_slots * stride] ints each *)
  mutable payloads : string list array array;  (* [chunk_slots] each *)
  mutable unused : int;  (* first slot never handed out *)
  mutable free : int;  (* freed slots, linked through their chains *)
  mutable buckets : int array;  (* power-of-two length, >= the arena's slots *)
  mutable shift : int;  (* [Sys.int_size - log2 (length buckets)] *)
  (* By list id, grown on demand with the peer arrays: *)
  mutable newest : int array;
  mutable oldest : int array;
  mutable size : int array;
  (* By peer id, grown on demand: *)
  mutable len_count : int array;  (* [lens] per peer: live route entries per length *)
  mutable top : int array;  (* longest path length with a route entry, or -1 *)
  mutable changed : int array;  (* the peer's last invalidation tick *)
  mutable clock : int;  (* ticks once per invalidation *)
  mutable flushed : int;  (* the last flush's tick *)
  written : int Itbl.t;  (* per key, the last write's tick since the last flush *)
  c : counters;
}

let get t s f = t.chunks.(s lsr chunk_bits).(((s land (chunk_slots - 1)) * stride) + f)
let set t s f v = t.chunks.(s lsr chunk_bits).(((s land (chunk_slots - 1)) * stride) + f) <- v
let payloads_at t s = t.payloads.(s lsr chunk_bits).(s land (chunk_slots - 1))
let set_payloads t s p = t.payloads.(s lsr chunk_bits).(s land (chunk_slots - 1)) <- p

(* The packed fields.  A free slot's list is -1: [asr] keeps the sign. *)
let list_of t s = get t s f_link asr slot_bits
let chain_of t s = get t s f_link land slot_mask
let set_link t s l chain = set t s f_link ((l lsl slot_bits) lor chain)
let set_chain t s chain = set t s f_link ((get t s f_link land lnot slot_mask) lor chain)
let set_older t s o = set t s f_lru ((o lsl slot_bits) lor (get t s f_lru land slot_mask))
let set_newer t s n = set t s f_lru ((get t s f_lru land lnot slot_mask) lor n)
let target_of t s = get t s f_entry lsr aux_bits
let aux_of t s = get t s f_entry land ((1 lsl aux_bits) - 1)

(* Fibonacci hashing: the top bits of the product mix every key bit,
   which matters for route codes, whose low bits are a path's last
   bits, and for keys made from floats, whose low bits are zero.  The
   list id goes in first, so one key's entries at different peers
   spread over the buckets. *)
let hash t l k = ((k + (l * 0x2545F4914F6CDD1D)) * 0x9E3779B97F4A7C1) lsr t.shift

let find t l k =
  let s = ref t.buckets.(hash t l k) in
  while !s <> 0 && (get t !s f_key <> k || list_of t !s <> l) do
    s := chain_of t !s
  done;
  !s

let unlink t s =
  let l = list_of t s and lru = get t s f_lru in
  let o = lru lsr slot_bits and n = lru land slot_mask in
  if o = 0 then t.oldest.(l) <- n else set_newer t o n;
  if n = 0 then t.newest.(l) <- o else set_older t n o

let push t s =
  let l = list_of t s in
  let head = t.newest.(l) in
  set t s f_lru (head lsl slot_bits);
  if head = 0 then t.oldest.(l) <- s else set_newer t head s;
  t.newest.(l) <- s

let bump t s =
  if t.newest.(list_of t s) <> s then begin
    unlink t s;
    push t s
  end

let routes at = 2 * at
let results at = (2 * at) + 1

let len_incr t at l =
  let i = (at * lens) + l in
  t.len_count.(i) <- t.len_count.(i) + 1;
  if l > t.top.(at) then t.top.(at) <- l

let len_decr t at l =
  let i = (at * lens) + l in
  t.len_count.(i) <- t.len_count.(i) - 1;
  if l = t.top.(at) then
    while t.top.(at) >= 0 && t.len_count.((at * lens) + t.top.(at)) = 0 do
      t.top.(at) <- t.top.(at) - 1
    done

(* A route entry also leaves its path length's count. *)
let remove t s =
  unlink t s;
  let l = list_of t s in
  if l land 1 = 0 then len_decr t (l lsr 1) (aux_of t s);
  let b = hash t l (get t s f_key) in
  if t.buckets.(b) = s then t.buckets.(b) <- chain_of t s
  else begin
    let p = ref t.buckets.(b) in
    while chain_of t !p <> s do
      p := chain_of t !p
    done;
    set_chain t !p (chain_of t s)
  end;
  set_payloads t s [];
  set_link t s (-1) t.free;
  t.free <- s;
  t.size.(l) <- t.size.(l) - 1

(* Adds a chunk, doubling the buckets when the arena outgrows them:
   chunks are smaller than the buckets, so once is enough. *)
let add_chunk t =
  if Array.length t.chunks = max_chunks then failwith "Qcache: too many entries";
  t.chunks <- Array.append t.chunks [| Array.make (chunk_slots * stride) 0 |];
  t.payloads <- Array.append t.payloads [| Array.make chunk_slots [] |];
  if Array.length t.chunks * chunk_slots > Array.length t.buckets then begin
    t.buckets <- Array.make (2 * Array.length t.buckets) 0;
    t.shift <- t.shift - 1;
    for s = 1 to t.unused - 1 do
      let l = list_of t s in
      if l >= 0 then begin
        let b = hash t l (get t s f_key) in
        set_chain t s t.buckets.(b);
        t.buckets.(b) <- s
      end
    done
  end

(* [add t l k] files the absent key [k] in list [l], most recent first,
   and returns its slot.  The caller makes room first. *)
let add t l k =
  let s =
    if t.free <> 0 then begin
      let s = t.free in
      t.free <- chain_of t s;
      s
    end
    else begin
      if t.unused >= Array.length t.chunks * chunk_slots then add_chunk t;
      let s = t.unused in
      t.unused <- s + 1;
      s
    end
  in
  set t s f_key k;
  let b = hash t l k in
  set_link t s l t.buckets.(b);
  t.buckets.(b) <- s;
  push t s;
  t.size.(l) <- t.size.(l) + 1;
  s

(* Makes room for peer [id] in the arrays indexed by peer or list. *)
let ensure t id =
  let n = Array.length t.top in
  if id >= n then begin
    let m = max (id + 1) (2 * n) in
    let extend a per fill =
      let b = Array.make (m * per) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.newest <- extend t.newest 2 0;
    t.oldest <- extend t.oldest 2 0;
    t.size <- extend t.size 2 0;
    t.len_count <- extend t.len_count lens 0;
    t.top <- extend t.top 1 (-1);
    t.changed <- extend t.changed 1 0
  end

let changed_at t id = if id < Array.length t.changed then t.changed.(id) else 0

(* No key is written until one is: skip the hash. *)
let written_at t k =
  if Itbl.length t.written = 0 then 0
  else match Itbl.find t.written k with w -> w | exception Not_found -> 0

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let emit_invalidate t ~peer ~reason =
  if Telemetry.active t.telemetry then
    Telemetry.emit t.telemetry (Event.Cache_invalidate { peer; reason })

let invalidate_peer ?(reason = "peer_changed") t id =
  ensure t id;
  t.changed.(id) <- tick t;
  t.c.c_invalidations <- t.c.c_invalidations + 1;
  emit_invalidate t ~peer:id ~reason

let invalidate_key ?(reason = "write") t key =
  Itbl.replace t.written (Key.to_int key) (tick t);
  t.c.c_invalidations <- t.c.c_invalidations + 1;
  emit_invalidate t ~peer:(-1) ~reason

let flush ?(reason = "flush") t =
  (* The flush's tick retires every entry at once; the key records only
     existed to compare against live entries, so they can go too. *)
  t.flushed <- tick t;
  Itbl.reset t.written;
  t.c.c_invalidations <- t.c.c_invalidations + 1;
  emit_invalidate t ~peer:(-1) ~reason

let invalidate t = function
  | Overlay.Peer_changed id -> invalidate_peer t id
  | Overlay.Key_written k -> invalidate_key t k
  | Overlay.Flush -> flush t

let observe t = function
  | Event.Migrate { peer; _ } -> invalidate_peer ~reason:"migrate" t peer
  | Event.Ref_evict { target; _ } -> invalidate_peer ~reason:"ref_evict" t target
  | Event.Balance_split _ -> flush ~reason:"balance_split" t
  | Event.Retract _ -> flush ~reason:"retract" t
  | Event.Partition_heal _ -> flush ~reason:"partition_heal" t
  | _ -> ()

let create ?(telemetry = Pgrid_telemetry.Global.get ()) ?(route_cap = 512)
    ?(result_cap = 512) overlay =
  if route_cap < 1 || result_cap < 1 then
    invalid_arg "Qcache.create: capacities must be >= 1";
  let n = Overlay.size overlay in
  let t =
    {
      overlay;
      telemetry;
      route_cap;
      result_cap;
      chunks = [||];
      payloads = [||];
      unused = 1;
      free = 0;
      buckets = Array.make chunk_slots 0;
      shift = Sys.int_size - chunk_bits;
      newest = Array.make (2 * n) 0;
      oldest = Array.make (2 * n) 0;
      size = Array.make (2 * n) 0;
      len_count = Array.make (n * lens) 0;
      top = Array.make n (-1);
      changed = Array.make n 0;
      clock = 0;
      flushed = 0;
      written = Itbl.create 256;
      c =
        {
          c_route_hits = 0;
          c_result_hits = 0;
          c_misses = 0;
          c_stale = 0;
          c_invalidations = 0;
          c_evictions = 0;
        };
    }
  in
  Overlay.subscribe overlay (fun change -> invalidate t change);
  t

type probe =
  | Hit_result of { target : int; present : bool; payloads : string list }
  | Hit_route of int
  | Stale of int
  | Miss

(* Validation on use is the correctness backstop: a cached responsible
   peer is served only if it is online and its path still matches the
   key — exactly the criterion a routed search terminates on — so even
   an entry that slipped past every invalidation event can redirect the
   lookup but never falsify its answer. *)
let target_valid t target key =
  let n = Overlay.node t.overlay target in
  n.Node.online && Node.responsible_for n key

(* Whether a flush or an invalidation of [target] came after the entry
   in slot [s] was learned: such an entry is indistinguishable from a
   miss. *)
let retired t s target =
  let stamp = get t s f_stamp in
  t.flushed > stamp || changed_at t target > stamp

let stale t target =
  t.c.c_stale <- t.c.c_stale + 1;
  Stale target

let miss t =
  t.c.c_misses <- t.c.c_misses + 1;
  Miss

(* The result cache's answer, charging a hit or a stale probe but not a
   miss, which is the caller's to charge once the route cache has had
   its say. *)
let from_results t at key =
  let k = Key.to_int key in
  let s = find t (results at) k in
  if s = 0 then Miss
  else begin
    let target = target_of t s in
    if retired t s target || written_at t k > get t s f_stamp then begin
      remove t s;
      Miss
    end
    else if target_valid t target key then begin
      bump t s;
      t.c.c_result_hits <- t.c.c_result_hits + 1;
      Hit_result { target; present = aux_of t s = 1; payloads = payloads_at t s }
    end
    else begin
      remove t s;
      stale t target
    end
  end

(* Longest-prefix probe from length [l] down: only lengths that hold
   entries are tried, and each prefix is looked up by its [Path.code],
   computed from the key without building a path. *)
let rec probe_routes t at key l =
  if l < 0 then miss t
  else if t.len_count.((at * lens) + l) = 0 then probe_routes t at key (l - 1)
  else begin
    let s = find t (routes at) ((Key.to_int key lsr (Key.bits - l)) lor (1 lsl l)) in
    if s = 0 then probe_routes t at key (l - 1)
    else begin
      let target = target_of t s in
      if retired t s target then begin
        remove t s;
        probe_routes t at key (l - 1)
      end
      else if target_valid t target key then begin
        bump t s;
        t.c.c_route_hits <- t.c.c_route_hits + 1;
        Hit_route target
      end
      else begin
        remove t s;
        stale t target
      end
    end
  end

let probe t ~at key =
  match from_results t at key with
  | Miss -> probe_routes t at key (if at < Array.length t.top then t.top.(at) else -1)
  | outcome -> outcome

let probe_results t ~at key =
  match from_results t at key with Miss -> miss t | outcome -> outcome

let learn t ~at ~key ~target ~present ~payloads =
  if at < 0 || at >= max_peers || target < 0 || target >= max_peers then
    invalid_arg "Qcache.learn: peer ids must be in [0, 2^30)";
  if at <> target then begin
    ensure t at;
    let path = (Overlay.node t.overlay target).Node.path in
    let r = routes at in
    let code = Path.code path in
    let s = find t r code in
    let s =
      if s <> 0 then begin
        bump t s;
        s
      end
      else begin
        if t.size.(r) = t.route_cap then begin
          remove t t.oldest.(r);
          t.c.c_evictions <- t.c.c_evictions + 1
        end;
        len_incr t at (Path.length path);
        add t r code
      end
    in
    set t s f_entry ((target lsl aux_bits) lor Path.length path);
    set t s f_stamp t.clock;
    let x = results at in
    let k = Key.to_int key in
    let s = find t x k in
    let s =
      if s <> 0 then begin
        bump t s;
        s
      end
      else begin
        if t.size.(x) = t.result_cap then begin
          remove t t.oldest.(x);
          t.c.c_evictions <- t.c.c_evictions + 1
        end;
        add t x k
      end
    in
    set t s f_entry ((target lsl aux_bits) lor Bool.to_int present);
    set t s f_stamp t.clock;
    set_payloads t s payloads
  end

let stats t =
  let entries kind =
    let n = ref 0 in
    Array.iteri (fun l size -> if l land 1 = kind then n := !n + size) t.size;
    !n
  in
  {
    route_hits = t.c.c_route_hits;
    result_hits = t.c.c_result_hits;
    misses = t.c.c_misses;
    stale = t.c.c_stale;
    invalidations = t.c.c_invalidations;
    evictions = t.c.c_evictions;
    route_entries = entries 0;
    result_entries = entries 1;
  }

let hit_ratio s =
  let probes = s.route_hits + s.result_hits + s.misses + s.stale in
  if probes = 0 then 0.
  else float_of_int (s.route_hits + s.result_hits) /. float_of_int probes

(* The chunks stay: every slot is past [unused] again, so none is read
   before [add] rewrites it, and the buckets keep their size, which
   still covers the arena.  Only the payload column holds pointers, so
   it is emptied. *)
let clear t =
  Array.iter (fun p -> Array.fill p 0 chunk_slots []) t.payloads;
  t.unused <- 1;
  t.free <- 0;
  List.iter
    (fun a -> Array.fill a 0 (Array.length a) 0)
    [ t.buckets; t.newest; t.oldest; t.size; t.len_count ];
  Array.fill t.top 0 (Array.length t.top) (-1)
