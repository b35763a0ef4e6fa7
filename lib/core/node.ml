module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path

type id = int

type meta = { mutable version : int; mutable dead : bool; mutable stamp : float }
type vers = (Key.t, meta) Hashtbl.t

(* Every node of one overlay shares one census, so whether any peer is
   offline is one read.  [set_online] is the only writer of [online] and
   keeps the count exact. *)
type census = { mutable offline : int }

let census () = { offline = 0 }
let offline c = c.offline

type t = {
  id : id;
  mutable path : Path.t;
  mutable refs : Intset.t array;
  store : (Key.t, string list) Hashtbl.t;
  vers : vers;
  replicas : Intset.t;
  mutable online : bool;
  census : census;
  mutable zero_keys : int;
  mutable payload_keys : int;
}

let create_in census ~id =
  {
    id;
    path = Path.root;
    refs = Array.init 8 (fun _ -> Intset.create ());
    store = Hashtbl.create 32;
    vers = Hashtbl.create 8;
    replicas = Intset.create ();
    online = true;
    census;
    zero_keys = 0;
    payload_keys = 0;
  }

let create ~id = create_in (census ()) ~id

let set_online t v =
  if t.online <> v then begin
    t.online <- v;
    t.census.offline <- (t.census.offline + if v then -1 else 1)
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
   - [payload_keys], the stored keys whose posting list is non-empty. *)
let level_bit_is_zero t key =
  let level = Path.length t.path in
  level < Key.bits && Key.bit key level = 0

let note_added t key =
  if t.zero_keys >= 0 && level_bit_is_zero t key then t.zero_keys <- t.zero_keys + 1

let note_removed t key payloads =
  if t.zero_keys >= 0 && level_bit_is_zero t key then t.zero_keys <- t.zero_keys - 1;
  if payloads <> [] then t.payload_keys <- t.payload_keys - 1

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
  t.payload_keys <- 0

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
let lookup t key = Option.value ~default:[] (Hashtbl.find_opt t.store key)
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
    t.zero_keys <- -1
  end

let ensure_capacity t level =
  let n = Array.length t.refs in
  if level >= n then begin
    let grown =
      Array.init
        (max (level + 1) (2 * n))
        (fun i -> if i < n then t.refs.(i) else Intset.create ())
    in
    t.refs <- grown
  end

let add_ref t ~level peer =
  if level < 0 then invalid_arg "Node.add_ref: negative level";
  ensure_capacity t level;
  if peer <> t.id then Intset.add t.refs.(level) peer

let in_range t level = level >= 0 && level < Array.length t.refs
let refs_at t ~level = if in_range t level then Intset.elements t.refs.(level) else []
let refs_count t ~level = if in_range t level then Intset.cardinal t.refs.(level) else 0
let refs_array t ~level = if in_range t level then Intset.to_array t.refs.(level) else [||]

let refs_iter t ~level f =
  if in_range t level then Intset.iter f t.refs.(level)

let refs_fold t ~level f acc =
  if in_range t level then Intset.fold f acc t.refs.(level) else acc

let has_ref t ~level peer = in_range t level && Intset.mem t.refs.(level) peer
let remove_ref t ~level peer = if in_range t level then Intset.remove t.refs.(level) peer

let set_refs t ~level peers =
  if level < 0 then invalid_arg "Node.set_refs: negative level";
  ensure_capacity t level;
  Intset.clear t.refs.(level);
  List.iter (fun p -> if p <> t.id then Intset.add t.refs.(level) p) peers

let union_refs t ~level ~from =
  if in_range from level && not (Intset.is_empty from.refs.(level)) then begin
    ensure_capacity t level;
    Intset.union_into ~into:t.refs.(level) from.refs.(level);
    Intset.remove t.refs.(level) t.id
  end

let reset_refs t ~capacity =
  t.refs <- Array.init (max 8 capacity) (fun _ -> Intset.create ())

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
