module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Moments = Pgrid_stats.Moments

(* Peer storage is an arena: a preallocated array indexed by dense peer
   id, of which the first [count] slots are live.  Growth doubles the
   array and blits, so ids (array indices) are stable across growth and
   [node] stays a plain array read on the routing hot path. *)
(* What a subscriber needs to know to keep derived state (query caches,
   secondary indexes) coherent.  Deliberately coarse: [Peer_changed]
   means "anything remembered about this peer is suspect" — its path,
   its store, or its references changed.  [Key_written] is a routed
   write reaching its responsible peer(s); [Flush] is a bulk mutation
   (global anti-entropy) not worth itemizing. *)
type change = Peer_changed of Node.id | Key_written of Pgrid_keyspace.Key.t | Flush

type partition = { path : Path.t; members : Node.id list; offline : int }

module Codes = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* One partition of the index.  [part], [absent] (its offline members,
   ascending) and [load] are as of the last refresh; during a refresh
   [arrivals] holds the members, online or not, filed there by it. *)
type entry = {
  mutable part : partition;
  mutable absent : Node.id list;
  mutable load : int;
  mutable arrivals : Node.id list;
  mutable touched : bool;  (* on the refresh's list of entries to settle *)
}

let new_entry path =
  {
    part = { path; members = []; offline = 0 };
    absent = [];
    load = 0;
    arrivals = [];
    touched = false;
  }

(* The entry of a peer not filed yet; never written. *)
let unfiled = new_entry Path.root

type t = {
  mutable nodes : Node.t array;
  mutable count : int;
  rng : Rng.t;
  mutable clock : int;
      (* overlay-wide write clock: every routed insert/delete that reaches
         a responsible peer gets the next version, so concurrent writes on
         either side of a partition are totally ordered per overlay and
         newest-write-wins is well defined after heal *)
  mutable watchers : (change -> unit) list;
  census : Node.census;  (* shared by every node, so offline peers are counted *)
  mutable picks : int array;  (* the members a scanning [eligible] kept last *)
  mutable direct : bool;  (* the last [eligible] kept no picks: [draw] reads its members *)
  mutable pick_set : Intset.t;  (* with [pick_level < 0], the members [draw] reads *)
  mutable pick_node : Node.t;  (* otherwise [pick_node]'s references at [pick_level] *)
  mutable pick_level : int;
  mutable pick_skip : int;  (* rank of the excluded member among them, or [max_int] *)
  entries : entry Codes.t;  (* the index, by [Path.code] *)
  mutable order : entry array;  (* the index in path order in the first [parts] slots; as long as [nodes] *)
  mutable parts : int;
  mutable filed : entry array;  (* by id, like [nodes]: where the last refresh filed it *)
  mutable filed_online : bool array;  (* by id: whether it was online then *)
}

let no_set = Intset.create ()

let create rng ~n =
  if n < 1 then invalid_arg "Overlay.create: n must be >= 1";
  let census = Node.census () in
  let nodes = Array.init n (fun id -> Node.create_in census ~id) in
  {
    nodes;
    count = n;
    rng;
    clock = 0;
    watchers = [];
    census;
    picks = Array.make 16 0;
    direct = false;
    pick_set = no_set;
    pick_node = nodes.(0);
    pick_level = -1;
    pick_skip = max_int;
    entries = Codes.create (max 16 (n / 2));
    parts = 0;
    order = Array.make n unfiled;
    filed = Array.make n unfiled;
    filed_online = Array.make n false;
  }

let subscribe t f = t.watchers <- f :: t.watchers

let notify t change =
  match t.watchers with [] -> () | ws -> List.iter (fun f -> f change) ws

let clock t = t.clock

let size t = t.count

let node t id =
  if id < 0 || id >= t.count then invalid_arg "Overlay.node: id out of range";
  t.nodes.(id)

let add_peer t =
  let cap = Array.length t.nodes in
  if t.count = cap then begin
    let grow a filler =
      let grown = Array.make (2 * cap) filler in
      Array.blit a 0 grown 0 cap;
      grown
    in
    (* Slots past [count] are never read; any existing node works as
       filler. *)
    t.nodes <- grow t.nodes t.nodes.(0);
    t.order <- grow t.order unfiled;
    t.filed <- grow t.filed unfiled;
    t.filed_online <- grow t.filed_online false
  end;
  let n = Node.create_in t.census ~id:t.count in
  t.nodes.(t.count) <- n;
  t.count <- t.count + 1;
  n

let iter t f =
  for i = 0 to t.count - 1 do
    f t.nodes.(i)
  done

let online_count t = t.count - Node.offline t.census
let compact_refs t = Node.compact_refs t.census

type search_result = {
  responsible : Node.id option;
  hops : int;
  key_present : bool;
  payloads : string list;
  dead_end : (Node.id * int) option;
}

(* First level at which [path] disagrees with [key], or -1.  The codes of
   [path] and of [key]'s prefix of the same length carry the same marker
   bit, so their xor holds exactly the differing bits, and the highest
   one is the first level that differs. *)
let divergence path key =
  let len = Path.length path in
  let prefix = (Key.to_int key lsr (Key.bits - len)) lor (1 lsl len) in
  let diff = Path.code path lxor prefix in
  if diff = 0 then -1 else len - 1 - Path.msb diff

let divergence_level path key =
  let l = divergence path key in
  if l < 0 then None else Some l

(* The single reference-choice kernel: the draw and the choice of
   counting the eligible members, drawing a rank and scanning to it,
   which the seeded experiments depend on.  The [count] members are
   [set]'s, or with [level >= 0] [n]'s references at [level].  While no
   peer is offline and no [admit] vetoes an edge, every member but
   [excluding] is eligible: the count is the cardinal, and [draw] maps
   its rank straight to the member, stepping over [excluding].
   Otherwise the members are copied into [t.picks] and one closure-free
   pass keeps the eligible ones there, in order, for [draw]. *)
let eligible_in admit t ~src ~excluding set n level count =
  match admit with
  | None when Node.offline t.census = 0 ->
    t.direct <- true;
    (* One pointer store (a write barrier) per pick, not two. *)
    if level < 0 then t.pick_set <- set else t.pick_node <- n;
    t.pick_level <- level;
    let skip =
      if excluding < 0 then -1
      else if level < 0 then Intset.rank set excluding
      else Node.refs_rank n ~level excluding
    in
    t.pick_skip <- (if skip < 0 then max_int else skip);
    if skip < 0 then count else count - 1
  | _ ->
    t.direct <- false;
    if Array.length t.picks < count then
      t.picks <- Array.make (max count (2 * Array.length t.picks)) 0;
    let picks = t.picks and nodes = t.nodes in
    if level < 0 then Intset.blit set picks else ignore (Node.refs_blit n ~level picks);
    let kept = ref 0 in
    for i = 0 to count - 1 do
      let id = picks.(i) in
      if
        id <> excluding
        && nodes.(id).Node.online
        && match admit with None -> true | Some admit -> admit src id
      then begin
        picks.(!kept) <- id;
        incr kept
      end
    done;
    !kept

let eligible ?admit t ~src ~excluding set =
  eligible_in admit t ~src ~excluding set t.nodes.(0) (-1) (Intset.cardinal set)

let draw t rng count =
  let r = Rng.int rng count in
  if t.direct then begin
    let i = if r >= t.pick_skip then r + 1 else r in
    if t.pick_level < 0 then Intset.get t.pick_set i
    else Node.refs_nth t.pick_node ~level:t.pick_level i
  end
  else t.picks.(r)

(* A uniform usable reference of [n] at [level], or -1. *)
let pick ?admit t rng n ~level ~excluding =
  let refs = Node.refs_count n ~level in
  let count =
    if refs = 0 then 0 else eligible_in admit t ~src:n.Node.id ~excluding no_set n level refs
  in
  if count = 0 then -1 else draw t rng count

let shuffled_refs rng n ~level into =
  let len = Node.refs_blit n ~level into in
  Rng.shuffle_ints_prefix rng into ~len;
  len

(* One step of a Fisher-Yates shuffle, taken when the caller needs it. *)
let draw_candidate rng into ~drawn ~len =
  if drawn < 0 || drawn >= len || len > Array.length into then
    invalid_arg "Overlay.draw_candidate: bad drawn or len";
  let j = drawn + Rng.int rng (len - drawn) in
  let id = into.(j) in
  into.(j) <- into.(drawn);
  into.(drawn) <- id;
  id

let random_online t rng ~excluding =
  let n = t.count in
  let rec try_ attempts =
    if attempts = 0 then -1
    else begin
      let i = Rng.int rng n in
      if i <> excluding && t.nodes.(i).Node.online then i else try_ (attempts - 1)
    end
  in
  try_ (4 * n)

(* Forward one step toward [key]: a uniform online reference at the
   divergence level. *)
let forward ?admit t cur key =
  let level = divergence cur.Node.path key in
  if level < 0 then `Responsible
  else begin
    let next = pick ?admit t t.rng cur ~level ~excluding:(-1) in
    if next < 0 then `Dead_end level else `Next next
  end

let max_hops = 2 * Key.bits
let max_relay_hops = 4 * Key.bits

let rng t = t.rng

type 'a visit = Forward | Forward_charged | Stop of 'a
type 'a stop = Responsible | Dead_end of int | Spent | Stopped of 'a
type 'a walk = { stop : 'a stop; at : Node.t; hops : int }

(* [forward]'s step, inlined, and a top-level loop, so that a walk
   allocates only its result. *)
let rec walk_from admit t rng key ~budget ~visit cur hops =
  if hops >= budget then { stop = Spent; at = cur; hops }
  else
    let level = divergence cur.Node.path key in
    if level < 0 then { stop = Responsible; at = cur; hops }
    else
      match visit cur with
      | Stop x -> { stop = Stopped x; at = cur; hops }
      | (Forward | Forward_charged) as v ->
        let hops = match v with Forward_charged -> hops + 1 | _ -> hops in
        let next = pick ?admit t rng cur ~level ~excluding:(-1) in
        if next < 0 then { stop = Dead_end level; at = cur; hops }
        else walk_from admit t rng key ~budget ~visit t.nodes.(next) (hops + 1)

let walk t rng start key ~budget ~visit = walk_from None t rng key ~budget ~visit start 0

let search ?admit t ~from key =
  let origin = node t from in
  (* An offline origin has no budget: it fails at once, with 0 hops. *)
  let budget = if origin.Node.online then max_hops + 1 else 0 in
  let w = walk_from admit t t.rng key ~budget ~visit:(fun _ -> Forward) origin 0 in
  match w.stop with
  | Responsible ->
    let found = Node.lookup_opt w.at key in
    {
      responsible = Some w.at.Node.id;
      hops = w.hops;
      key_present = Option.is_some found;
      payloads = Option.value found ~default:[];
      dead_end = None;
    }
  | stop ->
    let dead_end = match stop with Dead_end l -> Some (w.at.Node.id, l) | _ -> None in
    { responsible = None; hops = w.hops; key_present = false; payloads = []; dead_end }

type range_result = {
  visited : Node.id list;
  total_hops : int;
  matches : (Key.t * string list) list;
}

let range_search t ~from ~lo ~hi =
  if Key.compare lo hi > 0 then invalid_arg "Overlay.range_search: lo must be <= hi";
  let rec shower origin cursor visited hops matches =
    if Key.compare cursor hi > 0 then (List.rev visited, hops, List.rev matches)
    else begin
      let r = search t ~from:origin cursor in
      match r.responsible with
      | None -> (List.rev visited, hops + r.hops, List.rev matches)
      | Some id ->
        let peer = node t id in
        let found =
          Node.keys peer
          |> List.filter (fun k -> Key.compare lo k <= 0 && Key.compare k hi <= 0)
          |> List.sort Key.compare
          |> List.map (fun k -> (k, Node.lookup peer k))
        in
        let matches = List.rev_append found matches in
        let _, interval_hi = Path.interval_keys peer.Node.path in
        (* Continue at the first key beyond this partition; the current
           responsible peer is the new origin (prefix locality). *)
        if interval_hi >= 1 lsl Key.bits then
          (List.rev (id :: visited), hops + r.hops, List.rev matches)
        else
          shower id (Key.of_int interval_hi) (id :: visited) (hops + r.hops) matches
    end
  in
  let visited, total_hops, matches = shower from lo [] 0 [] in
  { visited; total_hops; matches }

(* A routed write: route to [key]'s responsible peer, take the next
   write version, and [write] it there and at each replica that is
   online, still covers the key and is reachable.  Offline replicas keep
   their copy; draining them is the recovery layer's job (they hold a
   durable intent for any tentative write they accepted).  A missing
   [admit] admits every edge, so the routing keeps its O(1) pick. *)
let routed_write admit t ~from key write =
  let r = search ?admit t ~from key in
  match r.responsible with
  | None -> None
  | Some id ->
    let peer = node t id in
    t.clock <- t.clock + 1;
    let version = t.clock in
    write peer version;
    Intset.iter
      (fun rid ->
        let replica = node t rid in
        if
          replica.Node.online
          && Node.responsible_for replica key
          && match admit with None -> true | Some f -> f id rid
        then write replica version)
      peer.Node.replicas;
    notify t (Key_written key);
    Some r.hops

let insert ?admit ?(stamp = 0.) t ~from key payload =
  routed_write admit t ~from key (fun n version -> Node.put n key payload ~version ~stamp)

type delete_result = { hops : int; removed : int }

let delete ?admit ?(stamp = 0.) t ~from ?payload key =
  let removed = ref 0 in
  let remove_at n version =
    let hit =
      match payload with
      | None ->
        (* Whole-key delete leaves a tombstone in the sidecar even where
           the key was already absent: the tombstone's job is to outvote
           stale replicas that resurface later. *)
        Node.entomb n key ~version ~stamp
      | Some p ->
        let hit = Node.remove_payload n key p in
        if hit then Node.note_write n key ~version ~stamp;
        hit
    in
    if hit then incr removed
  in
  Option.map
    (fun hops -> { hops; removed = !removed })
    (routed_write admit t ~from key remove_at)

let anti_entropy_pair t ~a ~b ~budget =
  if budget < 0 then invalid_arg "Overlay.anti_entropy_pair: negative budget";
  if a = b then 0
  else begin
    let na = node t a and nb = node t b in
    if
      (not na.Node.online)
      || (not nb.Node.online)
      || not (Path.equal na.Node.path nb.Node.path)
    then 0
    else begin
      let copied = ref 0 in
      let copy_missing src dst =
        try
          Node.fold src
            (fun k payloads () ->
              if !copied >= budget then raise Exit;
              match payloads with
              | [] ->
                if not (Node.has_key dst k) then begin
                  Node.ensure_key dst k;
                  incr copied
                end
              | payloads ->
                List.iter
                  (fun p ->
                    if !copied < budget && Node.insert_new dst k p then incr copied)
                  payloads)
            ()
        with Exit -> ()
      in
      copy_missing na nb;
      copy_missing nb na;
      Node.add_replica na b;
      Node.add_replica nb a;
      if !copied > 0 then begin
        notify t (Peer_changed a);
        notify t (Peer_changed b)
      end;
      !copied
    end
  end

(* --- the partition index --------------------------------------------------- *)

let load_of t members =
  List.fold_left (fun m i -> max m (Node.key_count t.nodes.(i))) 0 members

(* The first slot from [lo] whose path fails [before], which holds for
   the slots before some point and fails for all after it. *)
let bisect t lo before =
  let lo = ref lo and hi = ref t.parts in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if before t.order.(mid).part.path then lo := mid + 1 else hi := mid
  done;
  !lo

(* Whether an entry still has a member, online or not. *)
let settled e = e.part.members <> [] || e.absent <> []

(* [order] without the entries left empty, merged with [fresh] (new
   entries, in no order): compacted in place, then merged from the back,
   largest path first.  A partition has a member, so [order], as long as
   [nodes], has room. *)
let reorder t fresh =
  let fresh = List.sort (fun a b -> Path.compare b.part.path a.part.path) fresh in
  let kept = ref 0 in
  for i = 0 to t.parts - 1 do
    let e = t.order.(i) in
    if settled e then begin
      t.order.(!kept) <- e;
      incr kept
    end
  done;
  let len = !kept + List.length fresh in
  let i = ref (!kept - 1) and rest = ref fresh in
  for k = len - 1 downto 0 do
    match !rest with
    | e :: tail when !i < 0 || Path.compare t.order.(!i).part.path e.part.path < 0 ->
      t.order.(k) <- e;
      rest := tail
    | _ ->
      t.order.(k) <- t.order.(!i);
      decr i
  done;
  if t.parts > len then Array.fill t.order len (t.parts - len) unfiled;
  t.parts <- len

(* The ids of [l], in order, filed at [e] with liveness [online]. *)
let[@tail_mod_cons] rec keep t e online = function
  | [] -> []
  | id :: rest ->
    if t.filed.(id) == e && t.filed_online.(id) = online then id :: keep t e online rest
    else keep t e online rest

(* Files every peer its census lists as changed, then settles each entry
   it touched: the online and offline members it kept, each merged with
   its arrivals, and their load.  Entries left empty leave the index and
   new ones join it. *)
let refile t =
  let touched = ref [] and fresh = ref [] in
  let touch e =
    if not e.touched then begin
      e.touched <- true;
      touched := e :: !touched
    end
  in
  Node.take_changed t.census (fun n ->
      let id = n.Node.id and online = n.Node.online in
      let old = t.filed.(id) in
      if old != unfiled then touch old;
      let code = Path.code n.Node.path in
      let e =
        match Codes.find t.entries code with
        | e -> e
        | exception Not_found ->
          let e = new_entry n.Node.path in
          Codes.add t.entries code e;
          fresh := e :: !fresh;
          e
      in
      touch e;
      if old != e || t.filed_online.(id) <> online then e.arrivals <- id :: e.arrivals;
      t.filed.(id) <- e;
      t.filed_online.(id) <- online);
  let emptied = ref false in
  List.iter
    (fun e ->
      e.touched <- false;
      (* [List.sort] allocates even on an empty list. *)
      let arrivals = match e.arrivals with [] -> [] | l -> List.sort Int.compare l in
      let members =
        List.merge Int.compare (keep t e true e.part.members) (keep t e true arrivals)
      in
      e.absent <- List.merge Int.compare (keep t e false e.absent) (keep t e false arrivals);
      e.arrivals <- [];
      e.part <- { e.part with members; offline = List.length e.absent };
      e.load <- load_of t members;
      if not (settled e) then begin
        Codes.remove t.entries (Path.code e.part.path);
        emptied := true
      end)
    !touched;
  if !emptied || !fresh <> [] then reorder t !fresh

let refresh t = if Node.changed t.census then refile t

let partitions t =
  refresh t;
  t.parts

let check_slot t i = if i < 0 || i >= t.parts then invalid_arg "Overlay: no such partition"

let partition t i =
  check_slot t i;
  t.order.(i).part

let load t i =
  check_slot t i;
  t.order.(i).load

let offline_members t i =
  check_slot t i;
  t.order.(i).absent

let alive t i =
  check_slot t i;
  let e = t.order.(i) in
  List.fold_left
    (fun c id -> if Node.key_count t.nodes.(id) > 0 then c + 1 else c)
    (List.length e.part.members) e.absent

(* The slot at [path] as the last refresh left it, or -1. *)
let slot t path =
  let i = bisect t 0 (fun p -> Path.compare p path < 0) in
  if i < t.parts && Path.equal t.order.(i).part.path path then i else -1

let find t path =
  refresh t;
  slot t path

(* In path order a path's descendants directly follow it. *)
let subtree t path =
  refresh t;
  let first = bisect t 0 (fun p -> Path.compare p path < 0) in
  (first, bisect t first (fun p -> Path.is_prefix_of ~prefix:path p))

let inhabited_below t prefix =
  let first, past = subtree t prefix in
  let rec go i = i < past && (t.order.(i).part.members <> [] || go (i + 1)) in
  go first

let inhabited_around t prefix =
  inhabited_below t prefix
  ||
  let rec up len =
    len >= 0
    && ((let i = slot t (Path.prefix prefix len) in
         i >= 0 && t.order.(i).part.members <> [])
       || up (len - 1))
  in
  up (Path.length prefix - 1)

let online_below t prefix ~excluding =
  let first, past = subtree t prefix in
  let ids = ref [] in
  for i = first to past - 1 do
    List.iter (fun id -> if id <> excluding then ids := id :: !ids) t.order.(i).part.members
  done;
  List.sort (fun a b -> Int.compare b a) !ids

let online_covering t key =
  refresh t;
  let ids = ref [] in
  for len = 0 to Key.bits do
    let i = slot t (Path.key_prefix key len) in
    if i >= 0 then ids := List.rev_append t.order.(i).part.members !ids
  done;
  List.sort Int.compare !ids

(* The index's partitions; [excluding]'s own is rebuilt without it. *)
let census ?(excluding = -1) t =
  refresh t;
  let ex = if excluding >= 0 && excluding < t.count then t.filed.(excluding) else unfiled in
  let acc = ref [] in
  for i = t.parts - 1 downto 0 do
    let e = t.order.(i) in
    if e != ex then acc := e.part :: !acc
    else begin
      let p = e.part in
      let p =
        if t.filed_online.(excluding) then
          { p with members = List.filter (fun id -> id <> excluding) p.members }
        else { p with offline = p.offline - 1 }
      in
      if p.members <> [] || p.offline > 0 then acc := p :: !acc
    end
  done;
  !acc

let paths t =
  (* Built back-to-front so the result is in id order without a reverse
     pass or intermediate list. *)
  let acc = ref [] in
  for i = t.count - 1 downto 0 do
    let n = t.nodes.(i) in
    if n.Node.online then acc := n.Node.path :: !acc
  done;
  !acc

type stats = {
  peers : int;
  partitions : int;
  mean_path_length : float;
  max_path_length : int;
  mean_replication : float;
  storage : Moments.t;
}

let stats t =
  let lengths = Moments.create () in
  let storage = Moments.create () in
  let peers = ref 0 in
  iter t (fun n ->
      if n.Node.online then begin
        incr peers;
        Moments.add lengths (float_of_int (Path.length n.Node.path));
        Moments.add storage (float_of_int (Node.key_count n))
      end);
  let peers = !peers in
  let partitions =
    List.fold_left (fun c p -> if p.members = [] then c else c + 1) 0 (census t)
  in
  {
    peers;
    partitions;
    mean_path_length = Moments.mean lengths;
    max_path_length = (if peers = 0 then 0 else int_of_float (Moments.max lengths));
    mean_replication =
      (if partitions = 0 then 0. else float_of_int peers /. float_of_int partitions);
    storage;
  }

(* Each partition's union, over its online members in descending id
   order, then each member's gaps filled from it. *)
let anti_entropy t =
  let moved = ref 0 in
  for i = 0 to partitions t - 1 do
    match List.rev_map (fun id -> t.nodes.(id)) t.order.(i).part.members with
    | [] | [ _ ] -> ()
    | members ->
      let union = Hashtbl.create 64 in
      List.iter
        (fun n ->
          Node.fold n
            (fun k payloads () ->
              let existing = Option.value ~default:[] (Hashtbl.find_opt union k) in
              let missing = List.filter (fun p -> not (List.mem p existing)) payloads in
              Hashtbl.replace union k (missing @ existing))
            ())
        members;
      List.iter
        (fun n ->
          Hashtbl.iter
            (fun k payloads ->
              List.iter (fun p -> if Node.insert_new n k p then incr moved) payloads)
            union)
        members
  done;
  if !moved > 0 then notify t Flush;
  !moved

let integrity_errors t =
  let errors = ref 0 in
  (* Every peer's path in one int array, read once per reference instead
     of through the referenced node's record. *)
  let paths = Array.init t.count (fun i -> t.nodes.(i).Node.path) in
  (* A level may legitimately have no references when nobody populates the
     complement (empty key-space regions are never colonized). *)
  iter t (fun n ->
      if n.Node.online then
        for level = 0 to Path.length n.Node.path - 1 do
          let expected = Path.complement_at n.Node.path level in
          if Node.refs_count n ~level = 0 then begin
            if inhabited_below t expected then incr errors
          end
          else
            Node.refs_iter n ~level (fun id ->
                if Path.diverges_from ~prefix:expected ~len:(level + 1) paths.(id)
                then incr errors)
        done);
  !errors
