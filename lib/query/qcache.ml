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

(* A slot's fields, [stride] ints from [(slot mod chunk_slots) * stride]
   in its chunk.  The value columns: validity of an entry is
   generational, so invalidation never walks the caches: bumping one
   counter retires every entry that depends on it.  An entry records, at
   insert time,
     - the generation of the peer it points at ([Peer_changed] bumps it),
     - the global epoch ([Flush] bumps it),
     - for results, the write generation of its key ([Key_written]).
   Route slots also keep their path's length, results their presence. *)
let f_key = 0
let f_list = 1 (* -1 while the slot is free *)
let f_older = 2
let f_newer = 3
let f_chain = 4 (* next slot in the same bucket, or in the free list *)
let col_target = 5
let col_gen = 6
let col_epoch = 7
let col_len = 8
let col_wgen = 8
let col_present = 9
let stride = 10
let chunk_bits = 11
let chunk_slots = 1 lsl chunk_bits

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
  mutable free : int;  (* freed slots, linked through [f_chain] *)
  mutable buckets : int array;  (* power-of-two length, >= the arena's slots *)
  mutable shift : int;  (* [Sys.int_size - log2 (length buckets)] *)
  (* By list id, grown on demand with the peer arrays: *)
  mutable newest : int array;
  mutable oldest : int array;
  mutable size : int array;
  (* By peer id, grown on demand: *)
  mutable len_count : int array;  (* [lens] per peer: live route entries per length *)
  mutable top : int array;  (* longest path length with a route entry, or -1 *)
  mutable gen : int array;  (* the peer's generation *)
  mutable epoch : int;
  wgen : int Itbl.t;  (* per-key write generation *)
  c : counters;
}

let get t s f = t.chunks.(s lsr chunk_bits).(((s land (chunk_slots - 1)) * stride) + f)
let set t s f v = t.chunks.(s lsr chunk_bits).(((s land (chunk_slots - 1)) * stride) + f) <- v
let payloads_at t s = t.payloads.(s lsr chunk_bits).(s land (chunk_slots - 1))
let set_payloads t s p = t.payloads.(s lsr chunk_bits).(s land (chunk_slots - 1)) <- p

(* Fibonacci hashing: the top bits of the product mix every key bit,
   which matters for route codes, whose low bits are a path's last
   bits, and for keys made from floats, whose low bits are zero.  The
   list id goes in first, so one key's entries at different peers
   spread over the buckets. *)
let hash t l k = ((k + (l * 0x2545F4914F6CDD1D)) * 0x9E3779B97F4A7C1) lsr t.shift

let find t l k =
  let s = ref t.buckets.(hash t l k) in
  while !s <> 0 && (get t !s f_key <> k || get t !s f_list <> l) do
    s := get t !s f_chain
  done;
  !s

let unlink t s =
  let l = get t s f_list and o = get t s f_older and n = get t s f_newer in
  if o = 0 then t.oldest.(l) <- n else set t o f_newer n;
  if n = 0 then t.newest.(l) <- o else set t n f_older o

let push t s =
  let l = get t s f_list in
  let head = t.newest.(l) in
  set t s f_older head;
  set t s f_newer 0;
  if head = 0 then t.oldest.(l) <- s else set t head f_newer s;
  t.newest.(l) <- s

let bump t s =
  if t.newest.(get t s f_list) <> s then begin
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
  let l = get t s f_list in
  if l land 1 = 0 then len_decr t (l lsr 1) (get t s col_len);
  let b = hash t l (get t s f_key) in
  if t.buckets.(b) = s then t.buckets.(b) <- get t s f_chain
  else begin
    let p = ref t.buckets.(b) in
    while get t !p f_chain <> s do
      p := get t !p f_chain
    done;
    set t !p f_chain (get t s f_chain)
  end;
  set_payloads t s [];
  set t s f_list (-1);
  set t s f_chain t.free;
  t.free <- s;
  t.size.(l) <- t.size.(l) - 1

(* Adds a chunk, doubling the buckets when the arena outgrows them:
   chunks are smaller than the buckets, so once is enough. *)
let add_chunk t =
  t.chunks <- Array.append t.chunks [| Array.make (chunk_slots * stride) 0 |];
  t.payloads <- Array.append t.payloads [| Array.make chunk_slots [] |];
  if Array.length t.chunks * chunk_slots > Array.length t.buckets then begin
    t.buckets <- Array.make (2 * Array.length t.buckets) 0;
    t.shift <- t.shift - 1;
    for s = 1 to t.unused - 1 do
      let l = get t s f_list in
      if l >= 0 then begin
        let b = hash t l (get t s f_key) in
        set t s f_chain t.buckets.(b);
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
      t.free <- get t s f_chain;
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
  set t s f_list l;
  let b = hash t l k in
  set t s f_chain t.buckets.(b);
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
    t.gen <- extend t.gen 1 0
  end

let gen_of t id = if id < Array.length t.gen then t.gen.(id) else 0

let bump_gen t id =
  ensure t id;
  t.gen.(id) <- t.gen.(id) + 1

(* No key has a write generation until one is written: skip the hash. *)
let wgen_of t k =
  if Itbl.length t.wgen = 0 then 0
  else match Itbl.find t.wgen k with g -> g | exception Not_found -> 0

let emit_invalidate t ~peer ~reason =
  if Telemetry.active t.telemetry then
    Telemetry.emit t.telemetry (Event.Cache_invalidate { peer; reason })

let invalidate_peer ?(reason = "peer_changed") t id =
  bump_gen t id;
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
      gen = Array.make n 0;
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
let from_results t at key =
  let k = Key.to_int key in
  let s = find t (results at) k in
  if s = 0 then Miss
  else begin
    let target = get t s col_target in
    if
      get t s col_epoch <> t.epoch
      || get t s col_gen <> gen_of t target
      || get t s col_wgen <> wgen_of t k
    then begin
      (* Generationally retired: indistinguishable from a miss. *)
      remove t s;
      Miss
    end
    else if target_valid t target key then begin
      bump t s;
      t.c.c_result_hits <- t.c.c_result_hits + 1;
      Hit_result { target; present = get t s col_present = 1; payloads = payloads_at t s }
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
      let target = get t s col_target in
      if get t s col_epoch <> t.epoch || get t s col_gen <> gen_of t target then begin
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
  if at <> target then begin
    ensure t at;
    let gen = gen_of t target in
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
    set t s col_target target;
    set t s col_gen gen;
    set t s col_epoch t.epoch;
    set t s col_len (Path.length path);
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
    set t s col_target target;
    set t s col_gen gen;
    set t s col_epoch t.epoch;
    set t s col_wgen (wgen_of t k);
    set t s col_present (Bool.to_int present);
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
