module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

(* One peer's route or result cache: a bounded LRU map from int keys to
   slots, kept in flat int arrays so that a probe, a recency bump and a
   refresh allocate nothing and the heap holds no block per entry.  At
   the query-storm scale (millions of probes, about a million live
   entries) both the allocation and the pointer chasing of boxed entries
   cost more than the hops the cache saves.

   Slot 0 is the nil of the hash chains and of the free list, and the
   sentinel of the circular recency list: [older.(0)] is the most
   recently used slot and [newer.(0)] the eviction candidate.  A slot
   holds [width] ints of value, plus a payload list when the cache keeps
   one.  The arrays double
   as entries arrive, up to [cap] slots, so a peer pays for the entries
   it holds rather than for its capacity. *)
module Lru = struct
  type t = {
    cap : int;
    width : int;
    mutable size : int;
    mutable free : int;  (* freed slots, linked through [chain] *)
    mutable unused : int;  (* first slot never handed out *)
    mutable keys : int array;
    mutable older : int array;
    mutable newer : int array;
    mutable chain : int array;  (* next slot in the same bucket *)
    mutable buckets : int array;  (* power-of-two length *)
    mutable shift : int;  (* [Sys.int_size - log2 (length buckets)] *)
    mutable vals : int array;
    mutable payloads : string list array;  (* empty when not kept *)
  }

  (* Slots and hash buckets a cache starts with. *)
  let initial_bits = 3
  let initial = 1 lsl initial_bits

  let create ~cap ~width ~payloads =
    let slots = min cap initial + 1 in
    {
      cap;
      width;
      size = 0;
      free = 0;
      unused = 1;
      keys = Array.make slots 0;
      older = Array.make slots 0;
      newer = Array.make slots 0;
      chain = Array.make slots 0;
      buckets = Array.make initial 0;
      shift = Sys.int_size - initial_bits;
      vals = Array.make (slots * width) 0;
      payloads = Array.make (if payloads then slots else 0) [];
    }

  (* Fibonacci hashing: the top bits of the product mix every key bit,
     which matters for route codes, whose low bits are a path's last
     bits, and for keys made from floats, whose low bits are zero. *)
  let hash t k = (k * 0x9E3779B97F4A7C1) lsr t.shift

  let find t k =
    let s = ref t.buckets.(hash t k) in
    while !s <> 0 && t.keys.(!s) <> k do
      s := t.chain.(!s)
    done;
    !s

  let get t s j = t.vals.((s * t.width) + j)
  let set t s j v = t.vals.((s * t.width) + j) <- v
  let full t = t.size = t.cap
  let oldest t = t.newer.(0)

  let unlink t s =
    let o = t.older.(s) and n = t.newer.(s) in
    t.newer.(o) <- n;
    t.older.(n) <- o

  let push t s =
    let head = t.older.(0) in
    t.older.(s) <- head;
    t.newer.(s) <- 0;
    t.newer.(head) <- s;
    t.older.(0) <- s

  let bump t s =
    if t.older.(0) <> s then begin
      unlink t s;
      push t s
    end

  let remove t s =
    unlink t s;
    let b = hash t t.keys.(s) in
    if t.buckets.(b) = s then t.buckets.(b) <- t.chain.(s)
    else begin
      let p = ref t.buckets.(b) in
      while t.chain.(!p) <> s do
        p := t.chain.(!p)
      done;
      t.chain.(!p) <- t.chain.(s)
    end;
    if Array.length t.payloads > 0 then t.payloads.(s) <- [];
    t.chain.(s) <- t.free;
    t.free <- s;
    t.size <- t.size - 1

  (* Called with every slot live and fewer than [cap] of them. *)
  let grow t =
    let old = Array.length t.keys in
    let slots = min (2 * (old - 1)) t.cap + 1 in
    let extend a fill =
      let b = Array.make slots fill in
      Array.blit a 0 b 0 old;
      b
    in
    t.keys <- extend t.keys 0;
    t.older <- extend t.older 0;
    t.newer <- extend t.newer 0;
    t.chain <- extend t.chain 0;
    if Array.length t.payloads > 0 then t.payloads <- extend t.payloads [];
    let vals = Array.make (slots * t.width) 0 in
    Array.blit t.vals 0 vals 0 (old * t.width);
    t.vals <- vals;
    let nb = ref (Array.length t.buckets) and shift = ref t.shift in
    while !nb < slots - 1 do
      nb := 2 * !nb;
      decr shift
    done;
    if !nb > Array.length t.buckets then begin
      t.buckets <- Array.make !nb 0;
      t.shift <- !shift;
      for s = 1 to old - 1 do
        let b = hash t t.keys.(s) in
        t.chain.(s) <- t.buckets.(b);
        t.buckets.(b) <- s
      done
    end

  (* [add t k] files the absent key [k] in a slot, most recent first, and
     returns the slot.  The caller makes room first: [not (full t)]. *)
  let add t k =
    let s =
      if t.free <> 0 then begin
        let s = t.free in
        t.free <- t.chain.(s);
        s
      end
      else begin
        if t.unused = Array.length t.keys then grow t;
        let s = t.unused in
        t.unused <- s + 1;
        s
      end
    in
    t.keys.(s) <- k;
    let b = hash t k in
    t.chain.(s) <- t.buckets.(b);
    t.buckets.(b) <- s;
    push t s;
    t.size <- t.size + 1;
    s
end

(* Value columns.  Validity of an entry is generational, so invalidation
   never walks the caches: bumping one counter retires every entry that
   depends on it.  An entry records, at insert time,
     - the generation of the peer it points at ([Peer_changed] bumps it),
     - the global epoch ([Flush] bumps it),
     - for results, the write generation of its key ([Key_written]).
   Route slots also keep their path's length, results their presence. *)
let col_target = 0
let col_gen = 1
let col_epoch = 2
let col_len = 3
let col_wgen = 3
let col_present = 4

type peer_cache = {
  routes : Lru.t;  (* [Path.code] of a known responsible peer -> that peer *)
  results : Lru.t;  (* [Key.to_int] -> the answer *)
  len_count : int array;  (* live route entries per path length *)
  mutable top : int;  (* longest path length with a route entry, or -1 *)
}

let new_peer_cache ~route_cap ~result_cap =
  {
    routes = Lru.create ~cap:route_cap ~width:4 ~payloads:false;
    results = Lru.create ~cap:result_cap ~width:5 ~payloads:true;
    len_count = Array.make (Key.bits + 1) 0;
    top = -1;
  }

(* Stands for every peer without a cache: it holds nothing, so a probe
   finds nothing there, and nothing is ever filed in it. *)
let absent = new_peer_cache ~route_cap:0 ~result_cap:0

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
  mutable peers : peer_cache array;  (* by peer id, grown on demand *)
  mutable gen : int array;  (* per-peer generation, grown on demand *)
  mutable epoch : int;
  wgen : int Itbl.t;  (* per-key write generation *)
  c : counters;
}

let gen_of t id = if id < Array.length t.gen then t.gen.(id) else 0

let bump t id =
  if id >= Array.length t.gen then begin
    let grown = Array.make (max (id + 1) ((2 * Array.length t.gen) + 1)) 0 in
    Array.blit t.gen 0 grown 0 (Array.length t.gen);
    t.gen <- grown
  end;
  t.gen.(id) <- t.gen.(id) + 1

let wgen_of t k = match Itbl.find t.wgen k with g -> g | exception Not_found -> 0

let emit_invalidate t ~peer ~reason =
  if Telemetry.active t.telemetry then
    Telemetry.emit t.telemetry (Event.Cache_invalidate { peer; reason })

let invalidate_peer ?(reason = "peer_changed") t id =
  bump t id;
  t.c.c_invalidations <- t.c.c_invalidations + 1;
  emit_invalidate t ~peer:id ~reason

let invalidate_key ?(reason = "write") t key =
  let k = Key.to_int key in
  Itbl.replace t.wgen k (wgen_of t k + 1);
  t.c.c_invalidations <- t.c.c_invalidations + 1;
  emit_invalidate t ~peer:(-1) ~reason

let flush ?(reason = "flush") t =
  (* The epoch bump retires every entry at once; the write generations
     only existed to compare against live entries, so they can go too. *)
  t.epoch <- t.epoch + 1;
  Itbl.reset t.wgen;
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
  let t =
    {
      overlay;
      telemetry;
      route_cap;
      result_cap;
      peers = Array.make (Overlay.size overlay) absent;
      gen = Array.make (Overlay.size overlay) 0;
      epoch = 0;
      wgen = Itbl.create 256;
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

let cache_at t id = if id < Array.length t.peers then t.peers.(id) else absent

let peer_cache t id =
  if id >= Array.length t.peers then begin
    let grown = Array.make (max (id + 1) (2 * Array.length t.peers)) absent in
    Array.blit t.peers 0 grown 0 (Array.length t.peers);
    t.peers <- grown
  end;
  let pc = t.peers.(id) in
  if pc != absent then pc
  else begin
    let pc = new_peer_cache ~route_cap:t.route_cap ~result_cap:t.result_cap in
    t.peers.(id) <- pc;
    pc
  end

let len_incr pc l =
  pc.len_count.(l) <- pc.len_count.(l) + 1;
  if l > pc.top then pc.top <- l

let len_decr pc l =
  pc.len_count.(l) <- pc.len_count.(l) - 1;
  if l = pc.top then
    while pc.top >= 0 && pc.len_count.(pc.top) = 0 do
      pc.top <- pc.top - 1
    done

let remove_route pc s =
  let l = Lru.get pc.routes s col_len in
  Lru.remove pc.routes s;
  len_decr pc l

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

let stale t target =
  t.c.c_stale <- t.c.c_stale + 1;
  Stale target

let miss t =
  t.c.c_misses <- t.c.c_misses + 1;
  Miss

(* The result cache's answer, charging a hit or a stale probe but not a
   miss, which is the caller's to charge once the route cache has had
   its say. *)
let from_results t pc key =
  let r = pc.results in
  let k = Key.to_int key in
  let s = Lru.find r k in
  if s = 0 then Miss
  else begin
    let target = Lru.get r s col_target in
    if
      Lru.get r s col_epoch <> t.epoch
      || Lru.get r s col_gen <> gen_of t target
      || Lru.get r s col_wgen <> wgen_of t k
    then begin
      (* Generationally retired: indistinguishable from a miss. *)
      Lru.remove r s;
      Miss
    end
    else if target_valid t target key then begin
      Lru.bump r s;
      t.c.c_result_hits <- t.c.c_result_hits + 1;
      Hit_result
        { target; present = Lru.get r s col_present = 1; payloads = r.Lru.payloads.(s) }
    end
    else begin
      Lru.remove r s;
      stale t target
    end
  end

(* Longest-prefix probe from length [l] down: only lengths that hold
   entries are tried, and each prefix is looked up by its [Path.code],
   computed from the key without building a path. *)
let rec probe_routes t pc key l =
  if l < 0 then miss t
  else if pc.len_count.(l) = 0 then probe_routes t pc key (l - 1)
  else begin
    let r = pc.routes in
    let s = Lru.find r ((Key.to_int key lsr (Key.bits - l)) lor (1 lsl l)) in
    if s = 0 then probe_routes t pc key (l - 1)
    else begin
      let target = Lru.get r s col_target in
      if Lru.get r s col_epoch <> t.epoch || Lru.get r s col_gen <> gen_of t target
      then begin
        remove_route pc s;
        probe_routes t pc key (l - 1)
      end
      else if target_valid t target key then begin
        Lru.bump r s;
        t.c.c_route_hits <- t.c.c_route_hits + 1;
        Hit_route target
      end
      else begin
        remove_route pc s;
        stale t target
      end
    end
  end

let probe t ~at key =
  let pc = cache_at t at in
  match from_results t pc key with
  | Miss -> probe_routes t pc key pc.top
  | outcome -> outcome

let probe_results t ~at key =
  match from_results t (cache_at t at) key with Miss -> miss t | outcome -> outcome

let learn t ~at ~key ~target ~present ~payloads =
  if at <> target then begin
    let pc = peer_cache t at in
    let gen = gen_of t target in
    let path = (Overlay.node t.overlay target).Node.path in
    let r = pc.routes in
    let code = Path.code path in
    let s = Lru.find r code in
    let s =
      if s <> 0 then begin
        Lru.bump r s;
        s
      end
      else begin
        if Lru.full r then begin
          remove_route pc (Lru.oldest r);
          t.c.c_evictions <- t.c.c_evictions + 1
        end;
        len_incr pc (Path.length path);
        Lru.add r code
      end
    in
    Lru.set r s col_target target;
    Lru.set r s col_gen gen;
    Lru.set r s col_epoch t.epoch;
    Lru.set r s col_len (Path.length path);
    let x = pc.results in
    let k = Key.to_int key in
    let s = Lru.find x k in
    let s =
      if s <> 0 then begin
        Lru.bump x s;
        s
      end
      else begin
        if Lru.full x then begin
          Lru.remove x (Lru.oldest x);
          t.c.c_evictions <- t.c.c_evictions + 1
        end;
        Lru.add x k
      end
    in
    Lru.set x s col_target target;
    Lru.set x s col_gen gen;
    Lru.set x s col_epoch t.epoch;
    Lru.set x s col_wgen (wgen_of t k);
    Lru.set x s col_present (Bool.to_int present);
    x.Lru.payloads.(s) <- payloads
  end

let stats t =
  let route_entries = ref 0 and result_entries = ref 0 in
  Array.iter
    (fun pc ->
      route_entries := !route_entries + pc.routes.Lru.size;
      result_entries := !result_entries + pc.results.Lru.size)
    t.peers;
  {
    route_hits = t.c.c_route_hits;
    result_hits = t.c.c_result_hits;
    misses = t.c.c_misses;
    stale = t.c.c_stale;
    invalidations = t.c.c_invalidations;
    evictions = t.c.c_evictions;
    route_entries = !route_entries;
    result_entries = !result_entries;
  }

let hit_ratio s =
  let probes = s.route_hits + s.result_hits + s.misses + s.stale in
  if probes = 0 then 0.
  else float_of_int (s.route_hits + s.result_hits) /. float_of_int probes

let clear t = Array.fill t.peers 0 (Array.length t.peers) absent
