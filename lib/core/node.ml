module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path

type id = int

type meta = { mutable version : int; mutable dead : bool; mutable stamp : float }
type vers = (Key.t, meta) Hashtbl.t

(* Every node of one overlay shares one census.  It counts the offline
   nodes, so whether any peer is offline is one read; [set_online] is the
   only writer of [online] and keeps the count exact.  It also lists, in
   its first [n_changed] slots, each node whose path, liveness or key
   count changed since the list was last taken: a write that changes one
   calls [mark], which lists its node unless the node's [marked] flag
   says it is listed already.

   The census also holds the routing arena: every reference id of its
   nodes, as one sorted run per (node, level), in chunks of [chunk_words]
   ints (a longer run gets a chunk of its own).  A run is a header word
   and then [cap] slots, of which the first [len] hold the ids in
   ascending order.  A node's [runs.(level)] is the run's descriptor
   (chunk, offset of its first id, [len]), or 0 for no run; so reading a
   level's ids reads the node, the descriptor and the ids.  The header
   names its owner (the node's [slot] in [members], and the level) and
   [cap]; a dead run's header is [lnot cap].  Chunks [0 .. n_chunks - 2]
   are covered by headers to their ends, the last one to [top]. *)
type census = {
  mutable offline : int;
  mutable changed : t array;
  mutable n_changed : int;
  mutable chunks : int array array;
  mutable n_chunks : int;
  mutable top : int;  (* words used in chunk [n_chunks - 1] *)
  mutable live : int;  (* words of live runs, headers included *)
  mutable gaps : int;  (* words of dead runs and of chunk tails *)
  mutable reading : int;  (* [refs_iter]/[refs_fold] calls under way *)
  mutable members : t array;
  mutable n_members : int;
}

and table = int array

and t = {
  id : id;
  mutable path : Path.t;
  mutable runs : table;
  slot : int;
  store : (Key.t, string list) Hashtbl.t;
  vers : vers;
  replicas : Intset.t;
  mutable online : bool;
  census : census;
  mutable zero_keys : int;
  mutable payload_keys : int;
  mutable marked : bool;
}

let census () =
  {
    offline = 0;
    changed = [||];
    n_changed = 0;
    chunks = [||];
    n_chunks = 0;
    top = 0;
    live = 0;
    gaps = 0;
    reading = 0;
    members = [||];
    n_members = 0;
  }

let offline c = c.offline

let mark t =
  if not t.marked then begin
    t.marked <- true;
    let c = t.census in
    if c.n_changed = Array.length c.changed then begin
      let grown = Array.make (max 16 (2 * c.n_changed)) t in
      Array.blit c.changed 0 grown 0 c.n_changed;
      c.changed <- grown
    end;
    c.changed.(c.n_changed) <- t;
    c.n_changed <- c.n_changed + 1
  end

let changed c = c.n_changed > 0

let take_changed c f =
  for i = 0 to c.n_changed - 1 do
    let n = c.changed.(i) in
    n.marked <- false;
    f n
  done;
  c.n_changed <- 0

let create_in census ~id =
  let c = census in
  let t =
    {
      id;
      path = Path.root;
      runs = Array.make 8 0;
      slot = c.n_members;
      store = Hashtbl.create 32;
      vers = Hashtbl.create 8;
      replicas = Intset.create ();
      online = true;
      census;
      zero_keys = 0;
      payload_keys = 0;
      marked = false;
    }
  in
  if c.n_members = Array.length c.members then begin
    let grown = Array.make (max 16 (2 * c.n_members)) t in
    Array.blit c.members 0 grown 0 c.n_members;
    c.members <- grown
  end;
  c.members.(c.n_members) <- t;
  c.n_members <- c.n_members + 1;
  mark t;
  t

let create ~id = create_in (census ()) ~id

let set_online t v =
  if t.online <> v then begin
    t.online <- v;
    t.census.offline <- (t.census.offline + if v then -1 else 1);
    mark t
  end

(* Version metadata is a sidecar: the legacy store never reads it, so
   maintaining it costs nothing observable (and no RNG) unless a
   reconciliation-aware caller asks.  A key with no entry is implicitly
   (version 0, alive) — the state of every key written before versioning
   existed. *)

let meta t key = Hashtbl.find_opt t.vers key

(* The one newest-write-wins rule: the higher version wins, and a
   tombstone wins a tie. *)
let version_of = function None -> 0 | Some m -> m.version
let is_tombstone = function None -> false | Some m -> m.dead

let newer a b =
  let va = version_of a and vb = version_of b in
  va > vb || (va = vb && is_tombstone a && not (is_tombstone b))

let note t key ~dead ~version ~stamp =
  if version < 1 then invalid_arg "Node: versions start at 1";
  match Hashtbl.find_opt t.vers key with
  | Some m ->
    m.version <- version;
    m.dead <- dead;
    m.stamp <- stamp
  | None -> Hashtbl.replace t.vers key { version; dead; stamp }

let note_write t key ~version ~stamp = note t key ~dead:false ~version ~stamp
let drop_meta t key = Hashtbl.remove t.vers key
let meta_fold t f acc = Hashtbl.fold f t.vers acc

let tombstone_count t =
  Hashtbl.fold (fun _ m acc -> if m.dead then acc + 1 else acc) t.vers 0

let purge_tombstones t ~horizon =
  let doomed =
    Hashtbl.fold
      (fun k m acc -> if m.dead && m.stamp <= horizon then k :: acc else acc)
      t.vers []
  in
  List.iter (drop_meta t) doomed;
  List.length doomed

(* Two counts kept by every store mutation below, so the construction
   engine reads them without scanning the store:
   - [zero_keys], the distinct stored keys whose bit at the node's current
     path level is 0, or [-1] while stale: a path change makes it stale,
     and either {!cut_outside} recounts it in the pass it makes anyway or
     the next {!zero_count} does;
   - [payload_keys], the stored keys whose posting list is non-empty.
   A mutation that adds or removes a key also marks the node. *)
let level_bit_is_zero t key =
  let level = Path.length t.path in
  level < Key.bits && Key.bit key level = 0

let note_added t key =
  if t.zero_keys >= 0 && level_bit_is_zero t key then t.zero_keys <- t.zero_keys + 1;
  mark t

let note_removed t key payloads =
  if t.zero_keys >= 0 && level_bit_is_zero t key then t.zero_keys <- t.zero_keys - 1;
  if payloads <> [] then t.payload_keys <- t.payload_keys - 1;
  mark t

(* Posting lists are kept sorted and deduplicated, so insertion and
   removal are each a single pass that stops at the payload's sorted
   position — the previous unordered representation walked the whole
   list once to test membership ([List.mem]) and a second time to
   rebuild it ([List.filter]), per mutation. *)

(* [posting_add p sorted] is [Some sorted'] with [p] spliced in at its
   sorted position, or [None] when [p] is already present. *)
let rec posting_add p = function
  | [] -> Some [ p ]
  | q :: rest as l ->
    let c = String.compare p q in
    if c = 0 then None
    else if c < 0 then Some (p :: l)
    else Option.map (fun r -> q :: r) (posting_add p rest)

(* [posting_remove p sorted] is [Some sorted'] without [p], or [None]
   when [p] is absent; the sorted order lets the scan stop early. *)
let rec posting_remove p = function
  | [] -> None
  | q :: rest ->
    let c = String.compare p q in
    if c = 0 then Some rest
    else if c < 0 then None
    else Option.map (fun r -> q :: r) (posting_remove p rest)

(* Where a probe has just shown [key] absent, [Hashtbl.add] stands in for
   [Hashtbl.replace]: both put the new binding at its bucket's front, but
   [add] does not scan the bucket again. *)
let insert_new t key payload =
  match Hashtbl.find_opt t.store key with
  | None ->
    Hashtbl.add t.store key [ payload ];
    note_added t key;
    t.payload_keys <- t.payload_keys + 1;
    true
  | Some existing -> (
    match posting_add payload existing with
    | None -> false
    | Some updated ->
      Hashtbl.replace t.store key updated;
      if existing = [] then t.payload_keys <- t.payload_keys + 1;
      true)

let insert t key payload = ignore (insert_new t key payload)

(* Removing a payload never drops the key itself: payload-less keys are
   first-class (construction seeds every key with an empty posting list),
   so presence of the key and presence of a posting are independent.
   Whole-key removal goes through [remove_key]. *)
let remove_payload t key payload =
  match Hashtbl.find_opt t.store key with
  | None -> false
  | Some payloads -> (
    match posting_remove payload payloads with
    | None -> false
    | Some updated ->
      Hashtbl.replace t.store key updated;
      if updated = [] then t.payload_keys <- t.payload_keys - 1;
      true)

let ensure_key t key =
  if not (Hashtbl.mem t.store key) then begin
    Hashtbl.add t.store key [];
    note_added t key
  end

let merge_key t key payloads =
  if Hashtbl.mem t.store key then begin
    List.iter (insert t key) payloads;
    false
  end
  else begin
    Hashtbl.add t.store key payloads;
    note_added t key;
    if payloads <> [] then t.payload_keys <- t.payload_keys + 1;
    true
  end

(* [drop_key t key] removes [key] and reports whether it was present. *)
let drop_key t key =
  match Hashtbl.find_opt t.store key with
  | None -> false
  | Some payloads ->
    Hashtbl.remove t.store key;
    note_removed t key payloads;
    true

let remove_key t key = ignore (drop_key t key)

let clear_store t =
  Hashtbl.reset t.store;
  (* A crash wipes the disk, tombstones included: durability of deletes
     comes from replication, not from any single node's sidecar. *)
  Hashtbl.reset t.vers;
  t.zero_keys <- 0;
  t.payload_keys <- 0;
  mark t

(* The versioned writes: each one changes the store and records the
   write in the sidecar together. *)
let put t key payload ~version ~stamp =
  insert t key payload;
  note_write t key ~version ~stamp

let entomb t key ~version ~stamp =
  note t key ~dead:true ~version ~stamp;
  drop_key t key

let add_postings t key payloads =
  ensure_key t key;
  List.fold_left (fun n p -> if insert_new t key p then n + 1 else n) 0 payloads

let fold t f acc = Hashtbl.fold f t.store acc

let merge_store t ~from =
  fold from (fun k payloads n -> if merge_key t k payloads then n + 1 else n) 0

let has_key t key = Hashtbl.mem t.store key
let lookup_opt t key = Hashtbl.find_opt t.store key
let lookup t key = Option.value ~default:[] (lookup_opt t key)
let keys t = fold t (fun k _ acc -> k :: acc) []
let key_count t = Hashtbl.length t.store
let payload_key_count t = t.payload_keys

let zero_count t =
  if t.zero_keys < 0 then begin
    let level = Path.length t.path in
    t.zero_keys <-
      (if level >= Key.bits then 0
       else
         Hashtbl.fold
           (fun k _ acc -> if Key.bit k level = 0 then acc + 1 else acc)
           t.store 0)
  end;
  t.zero_keys

let set_path t path =
  if not (Path.equal t.path path) then begin
    t.path <- path;
    t.zero_keys <- -1;
    mark t
  end

(* --- The routing arena ----------------------------------------------------- *)

let chunk_words = 1 lsl 14
let field = (1 lsl 20) - 1  (* len, cap and offset fields are 20 bits *)
let desc k off len = (k lsl 40) lor (off lsl 20) lor len
let desc_len d = d land field
let desc_off d = (d lsr 20) land field
let desc_chunk d = d lsr 40
let header t level cap = (t.slot lsl 28) lor (level lsl 20) lor cap
let cap_of h = h land field

let run t level =
  if level >= 0 && level < Array.length t.runs then Array.unsafe_get t.runs level else 0

let levels t = Array.length t.runs

(* The table keeps at least [level + 1] levels, doubling as it grows;
   a run's header has 8 bits for its level. *)
let ensure_levels t level =
  if level > 0xff then invalid_arg "Node: routing level past 255";
  let n = Array.length t.runs in
  if level >= n then begin
    let grown = Array.make (max (level + 1) (2 * n)) 0 in
    Array.blit t.runs 0 grown 0 n;
    t.runs <- grown
  end

let kill c d =
  let chunk = c.chunks.(desc_chunk d) and h = desc_off d - 1 in
  let cap = cap_of chunk.(h) in
  chunk.(h) <- lnot cap;
  c.live <- c.live - 1 - cap;
  c.gaps <- c.gaps + 1 + cap

(* Compaction slides every live run, in arena order, down to the first
   free word, with no spare capacity; a run that does not fit in the rest
   of a chunk starts the next one, and a run emptied by removals is
   dropped.  The write position never passes the read position, so the
   slide needs no second arena.  Chunks past the last one written are
   released. *)
let compact_arena c =
  let wk = ref 0 and wo = ref 0 and live = ref 0 and gaps = ref 0 in
  for k = 0 to c.n_chunks - 1 do
    let src = c.chunks.(k) in
    let limit = if k = c.n_chunks - 1 then c.top else Array.length src in
    let p = ref 0 in
    while !p < limit do
      let h = src.(!p) in
      if h < 0 then p := !p + 1 + lnot h
      else begin
        let owner = c.members.(h lsr 28) and level = (h lsr 20) land 0xff in
        let len = desc_len owner.runs.(level) in
        if len = 0 then owner.runs.(level) <- 0
        else begin
          while !wo + 1 + len > Array.length c.chunks.(!wk) do
            let tail = Array.length c.chunks.(!wk) - !wo in
            if tail > 0 then c.chunks.(!wk).(!wo) <- lnot (tail - 1);
            gaps := !gaps + tail;
            incr wk;
            wo := 0
          done;
          let dst = c.chunks.(!wk) in
          dst.(!wo) <- header owner level len;
          for i = 1 to len do
            Array.unsafe_set dst (!wo + i) (Array.unsafe_get src (!p + i))
          done;
          owner.runs.(level) <- desc !wk (!wo + 1) len;
          wo := !wo + 1 + len;
          live := !live + 1 + len
        end;
        p := !p + 1 + cap_of h
      end
    done
  done;
  if c.n_chunks > 0 then begin
    for k = !wk + 1 to c.n_chunks - 1 do
      c.chunks.(k) <- [||]
    done;
    c.n_chunks <- !wk + 1;
    c.top <- !wo
  end;
  c.live <- !live;
  c.gaps <- !gaps

(* Only between reads: a [refs_iter] or [refs_fold] callback may write
   another node's table, and its own run must stay where it is. *)
let compact_refs c = if c.reading = 0 then compact_arena c

(* A fresh run of capacity [cap] for [t]'s [level] at the end of the
   arena, after a compaction when gaps outnumber live words.  The
   last chunk doubles while it is shorter than [chunk_words]; a run that
   fits in no chunk gets one of its own. *)
let alloc t level cap =
  let c = t.census in
  if c.gaps > c.live then compact_refs c;
  let need = cap + 1 in
  let last = c.n_chunks - 1 in
  if last >= 0 && c.top + need > Array.length c.chunks.(last) && c.top + need <= chunk_words
  then begin
    let old = c.chunks.(last) in
    let size = ref (Array.length old) in
    while !size < c.top + need do
      size := min chunk_words (2 * !size)
    done;
    let grown = Array.make !size 0 in
    Array.blit old 0 grown 0 c.top;
    c.chunks.(last) <- grown
  end;
  if last < 0 || c.top + need > Array.length c.chunks.(last) then begin
    if last >= 0 then begin
      let tail = Array.length c.chunks.(last) - c.top in
      if tail > 0 then c.chunks.(last).(c.top) <- lnot (tail - 1);
      c.gaps <- c.gaps + tail
    end;
    if c.n_chunks = Array.length c.chunks then begin
      let grown = Array.make (max 4 (2 * c.n_chunks)) [||] in
      Array.blit c.chunks 0 grown 0 c.n_chunks;
      c.chunks <- grown
    end;
    let size =
      if need > chunk_words then need
      else if last < 0 then max 64 need
      else chunk_words
    in
    c.chunks.(c.n_chunks) <- Array.make size 0;
    c.n_chunks <- c.n_chunks + 1;
    c.top <- 0
  end;
  let k = c.n_chunks - 1 in
  c.chunks.(k).(c.top) <- header t level cap;
  let d = desc k (c.top + 1) 0 in
  c.top <- c.top + need;
  c.live <- c.live + need;
  d

(* The descriptor of [t]'s [level] once its run can hold [n] ids: the
   run as it is, grown in place at the end of the arena, or moved to a
   new run with half again as much room.  With [keep], the ids are
   copied along. *)
let reserve t level n ~keep =
  let c = t.census in
  let d = t.runs.(level) in
  if d <> 0 && n <= cap_of c.chunks.(desc_chunk d).(desc_off d - 1) then d
  else begin
    let k = desc_chunk d and off = desc_off d in
    let last = c.n_chunks - 1 in
    if d <> 0 && k = last && off + cap_of c.chunks.(k).(off - 1) = c.top
       && off + n <= Array.length c.chunks.(k)
    then begin
      let chunk = c.chunks.(k) in
      let cap = cap_of chunk.(off - 1) in
      chunk.(off - 1) <- header t level n;
      c.top <- off + n;
      c.live <- c.live + n - cap;
      d
    end
    else begin
      if n > field then invalid_arg "Node: too many references at one level";
      let fresh = alloc t level (min field (n + (n / 2))) in
      (* [alloc] may have compacted: read the old run afresh. *)
      let d = t.runs.(level) in
      if d = 0 then fresh
      else begin
        let len = desc_len d in
        if keep then begin
          let src = c.chunks.(desc_chunk d) and dst = c.chunks.(desc_chunk fresh) in
          let so = desc_off d and fo = desc_off fresh in
          for i = 0 to len - 1 do
            Array.unsafe_set dst (fo + i) (Array.unsafe_get src (so + i))
          done
        end;
        kill c d;
        fresh lor len
      end
    end
  end

let add_ref t ~level peer =
  if level < 0 then invalid_arg "Node.add_ref: negative level";
  ensure_levels t level;
  if peer <> t.id then begin
    let d = t.runs.(level) in
    let len = desc_len d in
    let r =
      if d = 0 then -1 else Intset.run_rank t.census.chunks.(desc_chunk d) (desc_off d) len peer
    in
    if r < 0 then begin
      let d = reserve t level (len + 1) ~keep:true in
      Intset.run_insert t.census.chunks.(desc_chunk d) (desc_off d) len (lnot r) peer;
      t.runs.(level) <- d + 1
    end
  end

let refs_count t ~level = desc_len (run t level)

let refs_nth t ~level i =
  let d = run t level in
  if i < 0 || i >= desc_len d then invalid_arg "Node.refs_nth: index out of range";
  Array.unsafe_get t.census.chunks.(desc_chunk d) (desc_off d + i)

let refs_rank t ~level x =
  let d = run t level in
  if d = 0 then -1 else Intset.run_rank t.census.chunks.(desc_chunk d) (desc_off d) (desc_len d) x

let has_ref t ~level peer = refs_rank t ~level peer >= 0

let refs_blit t ~level into =
  let d = run t level in
  let len = desc_len d in
  if len > Array.length into then invalid_arg "Node.refs_blit: destination too short";
  if len > 0 then begin
    let chunk = t.census.chunks.(desc_chunk d) and off = desc_off d in
    for i = 0 to len - 1 do
      Array.unsafe_set into i (Array.unsafe_get chunk (off + i))
    done
  end;
  len

let refs_at t ~level =
  let d = run t level in
  let chunk = if d = 0 then [||] else t.census.chunks.(desc_chunk d) in
  List.init (desc_len d) (fun i -> chunk.(desc_off d + i))

(* While a callback runs, no compaction moves the run being read.
   [refs_iter] is the same loop without the accumulator. *)
let refs_fold t ~level f acc =
  let d = run t level in
  let len = desc_len d in
  if len = 0 then acc
  else begin
    let c = t.census in
    let chunk = c.chunks.(desc_chunk d) and off = desc_off d in
    c.reading <- c.reading + 1;
    match
      let acc = ref acc in
      for i = off to off + len - 1 do
        acc := f !acc (Array.unsafe_get chunk i)
      done;
      !acc
    with
    | acc ->
      c.reading <- c.reading - 1;
      acc
    | exception e ->
      c.reading <- c.reading - 1;
      raise e
  end

let refs_iter t ~level f =
  let d = run t level in
  let len = desc_len d in
  if len > 0 then begin
    let c = t.census in
    let chunk = c.chunks.(desc_chunk d) and off = desc_off d in
    c.reading <- c.reading + 1;
    match
      for i = off to off + len - 1 do
        f (Array.unsafe_get chunk i)
      done
    with
    | () -> c.reading <- c.reading - 1
    | exception e ->
      c.reading <- c.reading - 1;
      raise e
  end

let remove_ref t ~level peer =
  let r = refs_rank t ~level peer in
  if r >= 0 then begin
    let d = t.runs.(level) in
    Intset.run_delete t.census.chunks.(desc_chunk d) (desc_off d) (desc_len d) r;
    t.runs.(level) <- d - 1
  end

let set_refs t ~level peers =
  if level < 0 then invalid_arg "Node.set_refs: negative level";
  ensure_levels t level;
  let ids = Array.of_list (List.sort_uniq Int.compare (List.filter (( <> ) t.id) peers)) in
  let n = Array.length ids in
  if n > 0 || t.runs.(level) <> 0 then begin
    let d = reserve t level n ~keep:false in
    let chunk = t.census.chunks.(desc_chunk d) and off = desc_off d in
    Array.iteri (fun i p -> chunk.(off + i) <- p) ids;
    t.runs.(level) <- desc (desc_chunk d) off n
  end

let union_refs t ~level ~from =
  let s = run from level in
  let slen = desc_len s in
  if slen > 0 then begin
    ensure_levels t level;
    let d = t.runs.(level) in
    let len = desc_len d in
    let fresh =
      if d = 0 then slen
      else
        Intset.run_fresh t.census.chunks.(desc_chunk d) (desc_off d) len
          from.census.chunks.(desc_chunk s) (desc_off s) slen
    in
    if fresh > 0 then begin
      let d = reserve t level (len + fresh) ~keep:true in
      (* [reserve] may have compacted: read [from]'s run afresh. *)
      let s = run from level in
      Intset.run_merge t.census.chunks.(desc_chunk d) (desc_off d) len
        from.census.chunks.(desc_chunk s) (desc_off s) slen (len + fresh);
      t.runs.(level) <- d + fresh;
      remove_ref t ~level t.id
    end
  end

let reset_refs t ~capacity =
  Array.iter (fun d -> if d <> 0 then kill t.census d) t.runs;
  t.runs <- Array.make (max 8 capacity) 0

let routing_words c =
  let words = ref (Obj.reachable_words (Obj.repr c.chunks)) in
  for i = 0 to c.n_members - 1 do
    words := !words + Obj.reachable_words (Obj.repr c.members.(i).runs)
  done;
  !words

let add_replica t peer = if peer <> t.id then Intset.add t.replicas peer

let absorb_replicas t src =
  Intset.union_into ~into:t.replicas src;
  Intset.remove t.replicas t.id

let replica_list t = Intset.elements t.replicas
let replica_count t = Intset.cardinal t.replicas
let remove_replica t peer = Intset.remove t.replicas peer
let clear_replicas t = Intset.clear t.replicas

(* One fold, in the table's own order, collects the doomed entries and
   counts the kept keys' zero bits; each doomed key then costs one
   [Hashtbl.remove].  The doomed list comes out in reverse fold order, the
   order in which hand-overs route (and so draw for) the keys. *)
let cut_outside t path =
  let level = Path.length t.path in
  let counted = level < Key.bits in
  let zeros = ref 0 in
  let doomed =
    Hashtbl.fold
      (fun k payloads acc ->
        if Path.matches_key path k then begin
          if counted && Key.bit k level = 0 then incr zeros;
          acc
        end
        else (k, payloads) :: acc)
      t.store []
  in
  List.iter
    (fun (k, payloads) ->
      Hashtbl.remove t.store k;
      if payloads <> [] then t.payload_keys <- t.payload_keys - 1)
    doomed;
  t.zero_keys <- !zeros;
  if doomed <> [] then mark t;
  doomed

let drop_keys_outside t path =
  let doomed = cut_outside t path in
  let stale_meta =
    Hashtbl.fold
      (fun k _ acc -> if Path.matches_key path k then acc else k :: acc)
      t.vers []
  in
  List.iter (drop_meta t) stale_meta;
  List.length doomed

let responsible_for t key = Path.matches_key t.path key
