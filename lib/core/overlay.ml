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
  mutable direct : bool;  (* the last [eligible] kept no picks: [draw] reads [pick_set] *)
  mutable pick_set : Intset.t;
  mutable pick_skip : int;  (* rank of the excluded member in [pick_set], or [max_int] *)
}

let create rng ~n =
  if n < 1 then invalid_arg "Overlay.create: n must be >= 1";
  let census = Node.census () in
  {
    nodes = Array.init n (fun id -> Node.create_in census ~id);
    count = n;
    rng;
    clock = 0;
    watchers = [];
    census;
    picks = Array.make 16 0;
    direct = false;
    pick_set = Intset.create ();
    pick_skip = max_int;
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
    (* Slots past [count] are never read; any existing node works as
       filler for [Array.make]. *)
    let grown = Array.make (2 * cap) t.nodes.(0) in
    Array.blit t.nodes 0 grown 0 cap;
    t.nodes <- grown
  end;
  let n = Node.create_in t.census ~id:t.count in
  t.nodes.(t.count) <- n;
  t.count <- t.count + 1;
  n

let iter t f =
  for i = 0 to t.count - 1 do
    f t.nodes.(i)
  done

let exists t p =
  let rec go i = i < t.count && (p t.nodes.(i) || go (i + 1)) in
  go 0

let online_count t = t.count - Node.offline t.census

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
   which the seeded experiments depend on.  While no peer is offline and
   no [admit] vetoes an edge, every member but [excluding] is eligible:
   the count is the cardinal, and [draw] maps its rank straight to the
   member, stepping over [excluding].  Otherwise one closure-free pass
   keeps the eligible members in [t.picks] for [draw]. *)
let eligible ?admit t ~src ~excluding set =
  let n = Intset.cardinal set in
  match admit with
  | None when Node.offline t.census = 0 ->
    t.direct <- true;
    t.pick_set <- set;
    let skip = if excluding < 0 then -1 else Intset.rank set excluding in
    t.pick_skip <- (if skip < 0 then max_int else skip);
    if skip < 0 then n else n - 1
  | _ ->
    t.direct <- false;
    if Array.length t.picks < n then
      t.picks <- Array.make (max n (2 * Array.length t.picks)) 0;
    let picks = t.picks and nodes = t.nodes in
    let count = ref 0 in
    for i = 0 to n - 1 do
      let id = Intset.get set i in
      if
        id <> excluding
        && nodes.(id).Node.online
        && match admit with None -> true | Some admit -> admit src id
      then begin
        picks.(!count) <- id;
        incr count
      end
    done;
    !count

let draw t rng count =
  let r = Rng.int rng count in
  if t.direct then Intset.get t.pick_set (if r >= t.pick_skip then r + 1 else r)
  else t.picks.(r)

(* Forward one step toward [key]: a uniform online reference at the
   divergence level. *)
let forward ?admit t cur key =
  let level = divergence cur.Node.path key in
  if level < 0 then `Responsible
  else begin
    let count =
      if Node.refs_count cur ~level = 0 then 0
      else eligible ?admit t ~src:cur.Node.id ~excluding:(-1) cur.Node.refs.(level)
    in
    if count = 0 then `Dead_end level else `Next (draw t t.rng count)
  end

let max_hops = 2 * Key.bits

let search ?admit t ~from key =
  let fail ?at hops =
    { responsible = None; hops; key_present = false; payloads = []; dead_end = at }
  in
  let rec go cur hops =
    if hops > max_hops then fail hops
    else begin
      match forward ?admit t cur key with
      | `Responsible ->
        {
          responsible = Some cur.Node.id;
          hops;
          key_present = Node.has_key cur key;
          payloads = Node.lookup cur key;
          dead_end = None;
        }
      | `Dead_end level -> fail ~at:(cur.Node.id, level) hops
      | `Next id -> go (node t id) (hops + 1)
    end
  in
  let origin = node t from in
  if origin.Node.online then go origin 0 else fail 0

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

(* Every routed write admits every edge unless a caller modelling a live
   partition passes the cut as [admit src dst]; a missing [admit] stays
   [None], so the routing keeps its O(1) pick. *)
let admits admit src dst = match admit with None -> true | Some f -> f src dst

let insert ?admit ?(stamp = 0.) t ~from key payload =
  let r = search ?admit t ~from key in
  match r.responsible with
  | None -> None
  | Some id ->
    let peer = node t id in
    t.clock <- t.clock + 1;
    let version = t.clock in
    Node.put peer key payload ~version ~stamp;
    Intset.iter
      (fun rid ->
        let replica = node t rid in
        if
          replica.Node.online
          && Node.responsible_for replica key
          && admits admit id rid
        then Node.put replica key payload ~version ~stamp)
      peer.Node.replicas;
    notify t (Key_written key);
    Some r.hops

type delete_result = { hops : int; removed : int }

let delete ?admit ?(stamp = 0.) t ~from ?payload key =
  let r = search ?admit t ~from key in
  match r.responsible with
  | None -> None
  | Some id ->
    let peer = node t id in
    t.clock <- t.clock + 1;
    let version = t.clock in
    let remove_at n =
      match payload with
      | None ->
        (* Whole-key delete leaves a tombstone in the sidecar even where
           the key was already absent: the tombstone's job is to outvote
           stale replicas that resurface later. *)
        if Node.entomb n key ~version ~stamp then 1 else 0
      | Some p ->
        if Node.remove_payload n key p then begin
          Node.note_write n key ~version ~stamp;
          1
        end
        else 0
    in
    (* Same fan-out discipline as [insert]: the responsible peer plus its
       online replicas that still cover the key.  Offline replicas keep
       their copy; draining them is the recovery layer's job (they hold a
       durable intent for any tentative write they accepted). *)
    let removed = ref (remove_at peer) in
    Intset.iter
      (fun rid ->
        let replica = node t rid in
        if
          replica.Node.online
          && Node.responsible_for replica key
          && admits admit id rid
        then removed := !removed + remove_at replica)
      peer.Node.replicas;
    notify t (Key_written key);
    Some { hops = r.hops; removed = !removed }

let anti_entropy t =
  let by_path = Hashtbl.create 64 in
  iter t (fun n ->
      if n.Node.online then begin
        let key = Path.to_string n.Node.path in
        let group = Option.value ~default:[] (Hashtbl.find_opt by_path key) in
        Hashtbl.replace by_path key (n :: group)
      end);
  let moved = ref 0 in
  Hashtbl.iter
    (fun _ group ->
      match group with
      | [] | [ _ ] -> ()
      | members ->
        (* Union of the group's stores, then fill each member's gaps. *)
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
                List.iter
                  (fun p -> if Node.insert_new n k p then incr moved)
                  payloads)
              union)
          members)
    by_path;
  if !moved > 0 then notify t Flush;
  !moved

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

type partition = { path : Path.t; members : Node.id list; offline : int }

module Codes = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* One path's running count in [census]. *)
type tally = { t_path : Path.t; mutable t_members : Node.id list; mutable t_offline : int }

(* Grouped by [Path.code] (injective), walking ids downward so that
   consing leaves each member list ascending; only the distinct paths
   are sorted. *)
let census ?(excluding = -1) t =
  (* Partitions hold about two peers each; sized for that, the table
     rarely grows. *)
  let tbl = Codes.create (t.count / 2) in
  for i = t.count - 1 downto 0 do
    if i <> excluding then begin
      let n = t.nodes.(i) in
      let code = Path.code n.Node.path in
      let c =
        match Codes.find tbl code with
        | c -> c
        | exception Not_found ->
          let c = { t_path = n.Node.path; t_members = []; t_offline = 0 } in
          Codes.add tbl code c;
          c
      in
      if n.Node.online then c.t_members <- i :: c.t_members
      else c.t_offline <- c.t_offline + 1
    end
  done;
  let parts =
    Codes.fold
      (fun _ c acc -> { path = c.t_path; members = c.t_members; offline = c.t_offline } :: acc)
      tbl []
    |> Array.of_list
  in
  Array.stable_sort (fun a b -> Path.compare a.path b.path) parts;
  Array.to_list parts

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

let integrity_errors t =
  let errors = ref 0 in
  (* A level may legitimately have no references when nobody populates the
     complement (empty key-space regions are never colonized). *)
  let complement_inhabited prefix =
    exists t (fun n -> n.Node.online && Path.is_prefix_of ~prefix n.Node.path)
  in
  iter t (fun n ->
      if n.Node.online then
        for level = 0 to Path.length n.Node.path - 1 do
          let expected = Path.complement_at n.Node.path level in
          let refs = Node.refs_at n ~level in
          if refs = [] then begin
            if complement_inhabited expected then incr errors
          end
          else
            List.iter
              (fun id ->
                let rp = (node t id).Node.path in
                if
                  Path.length rp > level
                  && not (Path.is_prefix_of ~prefix:expected rp)
                then incr errors)
              refs
        done);
  !errors
