module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Aep_math = Pgrid_partition.Aep_math
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

let node = Overlay.node

type config = {
  d_max : int;
  n_min : int;
  retract_load : int;
  retract_members : int;
  max_actions : int;
}

let default_config ~d_max ~n_min =
  {
    d_max;
    n_min;
    retract_load = min (d_max - 1) (max 1 (d_max / 4));
    retract_members = n_min;
    max_actions = 32;
  }

(* Cross-references a split seeds per member at the new level. *)
let cross_refs = 4

let validate cfg =
  if cfg.d_max < 1 then invalid_arg "Balance: d_max must be >= 1";
  if cfg.n_min < 1 then invalid_arg "Balance: n_min must be >= 1";
  if cfg.retract_load < 0 then invalid_arg "Balance: negative retract_load";
  if cfg.retract_load >= cfg.d_max then
    invalid_arg "Balance: retract_load must leave headroom below d_max";
  if cfg.retract_members < 0 then invalid_arg "Balance: negative retract_members";
  if cfg.max_actions < 0 then invalid_arg "Balance: negative max_actions"

type pass_report = {
  splits : int;
  retracts : int;
  migrated_keys : int;
  copied_keys : int;
  max_load : int;
}

(* Union of the partition's stores: key -> deduplicated payload list.
   Payload lists per key are short (document postings), so List.mem is
   fine. *)
let union_stores overlay members =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun i ->
      Node.fold (node overlay i)
        (fun k payloads () ->
          let have = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
          let merged =
            List.fold_left
              (fun acc p -> if List.mem p acc then acc else p :: acc)
              have payloads
          in
          Hashtbl.replace tbl k merged)
        ())
    members;
  tbl

(* Copy every key of [union] that [path] covers into [n], counting the
   (key, payload) copies that were actually new. *)
let top_up overlay union i path =
  let n = node overlay i in
  Hashtbl.fold
    (fun k payloads copied ->
      if Path.matches_key path k then copied + Node.add_postings n k payloads
      else copied)
    union 0

(* --- split ----------------------------------------------------------------- *)

(* Fraction of [i]'s keys whose bit at the partition level takes the
   minority side; peers with empty stores are indifferent. *)
let minority_fraction overlay i ~minority_bit =
  let n = node overlay i in
  let total = Node.key_count n in
  if total = 0 then 0.5
  else begin
    let zf = float_of_int (Node.zero_count n) /. float_of_int total in
    if minority_bit = 0 then zf else 1. -. zf
  end

(* Decide a side for every member with the AEP pairwise machinery: two
   undecided peers perform a balanced split with probability [alpha];
   an undecided peer meeting a minority-decided one takes the majority
   side (rule 3), and meeting a majority-decided one takes the minority
   side with probability [beta] (rule 4).  The result divides
   membership in proportion to the estimated load fraction. *)
let decide_sides rng overlay members ~minority_bit ~probs =
  let arr = Array.of_list members in
  let len = Array.length arr in
  let side = Array.make len (-1) in
  let undecided = ref len in
  (* The pairwise process terminates in O(n) expected interactions;
     the guard only protects against pathological tiny probabilities. *)
  let guard = ref (256 * len * len) in
  while !undecided > 0 && !guard > 0 do
    decr guard;
    let i = Rng.int rng len and j = Rng.int rng len in
    if i <> j then begin
      match (side.(i), side.(j)) with
      | -1, -1 ->
        if Rng.bernoulli rng probs.Aep_math.alpha then begin
          (* Balanced split: the peer holding relatively more minority
             keys takes the minority side. *)
          let fi = minority_fraction overlay arr.(i) ~minority_bit
          and fj = minority_fraction overlay arr.(j) ~minority_bit in
          let mi, ma = if fi >= fj then (i, j) else (j, i) in
          side.(mi) <- minority_bit;
          side.(ma) <- 1 - minority_bit;
          undecided := !undecided - 2
        end
      | -1, s | s, -1 ->
        let u = if side.(i) = -1 then i else j in
        let chosen =
          if s = minority_bit then 1 - minority_bit
          else if Rng.bernoulli rng probs.Aep_math.beta then minority_bit
          else 1 - minority_bit
        in
        side.(u) <- chosen;
        decr undecided
      | _ -> ()
    end
  done;
  (* Guard exhausted (never in practice): leftovers follow their local
     majority. *)
  Array.iteri
    (fun k s ->
      if s = -1 then
        side.(k) <-
          (if minority_fraction overlay arr.(k) ~minority_bit > 0.5 then minority_bit
           else 1 - minority_bit))
    side;
  (arr, side)

(* Both halves must keep [n_min] members: re-home the surplus peers
   holding the most keys of the starved side. *)
let enforce_floor overlay arr side ~bit ~n_min =
  let count b = Array.fold_left (fun c s -> if s = b then c + 1 else c) 0 side in
  while count bit < n_min do
    let best = ref (-1) and best_f = ref (-1.) in
    Array.iteri
      (fun k s ->
        if s <> bit then begin
          let f = minority_fraction overlay arr.(k) ~minority_bit:bit in
          if f > !best_f then begin
            best := k;
            best_f := f
          end
        end)
      side;
    side.(!best) <- bit
  done

let split_partition ?(telemetry = Pgrid_telemetry.Global.get ()) rng overlay ~path
    ~members cfg =
  let level = Path.length path in
  let zeros = List.fold_left (fun z i -> z + Node.zero_count (node overlay i)) 0 members in
  let total = List.fold_left (fun t i -> t + Node.key_count (node overlay i)) 0 members in
  let p_hat =
    Aep_math.clamp_estimate ~samples:(max 1 total)
      (float_of_int zeros /. float_of_int (max 1 total))
  in
  let p_eff, flipped = Aep_math.normalize p_hat in
  let minority_bit = if flipped then 1 else 0 in
  let probs = Aep_math.probabilities ~p:p_eff in
  let arr, side = decide_sides rng overlay members ~minority_bit ~probs in
  enforce_floor overlay arr side ~bit:0 ~n_min:cfg.n_min;
  enforce_floor overlay arr side ~bit:1 ~n_min:cfg.n_min;
  let p0 = Path.extend path 0 and p1 = Path.extend path 1 in
  let union = union_stores overlay members in
  (* Re-home every member, dropping the keys that left its half. *)
  let dropped_total = ref 0 in
  Array.iteri
    (fun k i ->
      let n = node overlay i in
      let newp = if side.(k) = 0 then p0 else p1 in
      Node.set_path n newp;
      Overlay.notify overlay (Overlay.Peer_changed i);
      let dropped = Node.drop_keys_outside n newp in
      dropped_total := !dropped_total + dropped;
      if dropped > 0 && Telemetry.active telemetry then
        Telemetry.emit telemetry (Event.Migrate { peer = i; level; keys = dropped }))
    arr;
  (* Migrate keys to the responsible half: top every member up from the
     pre-split union, so divergent replica stores cannot strand a key on
     the wrong side. *)
  let copied = ref 0 in
  Array.iteri
    (fun k i ->
      copied := !copied + top_up overlay union i (if side.(k) = 0 then p0 else p1))
    arr;
  (* Cross-references at the new level, both directions, and replica
     lists rebuilt per half. *)
  let members_of b =
    let acc = ref [] in
    Array.iteri (fun k s -> if s = b then acc := arr.(k) :: !acc) side;
    List.rev !acc
  in
  let side0 = members_of 0 and side1 = members_of 1 in
  let seed_refs i others =
    let n = node overlay i in
    let pool = Array.of_list (List.filter (fun r -> r <> i) others) in
    Rng.shuffle_ints rng pool;
    Array.iteri (fun rank r -> if rank < cross_refs then Node.add_ref n ~level r) pool
  in
  let rebuild_replicas i mates =
    let n = node overlay i in
    Node.clear_replicas n;
    List.iter (fun r -> if r <> i then Node.add_replica n r) mates
  in
  List.iter
    (fun i ->
      seed_refs i side1;
      rebuild_replicas i side0)
    side0;
  List.iter
    (fun i ->
      seed_refs i side0;
      rebuild_replicas i side1)
    side1;
  if Telemetry.active telemetry then
    Telemetry.emit telemetry
      (Event.Balance_split
         {
           path = Path.to_string path;
           level;
           zeros = List.length side0;
           ones = List.length side1;
         });
  (!dropped_total, !copied)

(* --- retract --------------------------------------------------------------- *)

let retract_partition ?(telemetry = Pgrid_telemetry.Global.get ()) overlay ~path
    ~members ~sibling_members =
  let parent = Path.parent path in
  let group = members @ sibling_members in
  let union = union_stores overlay group in
  let level = Path.length parent in
  List.iter
    (fun i ->
      let n = node overlay i in
      Node.set_path n parent;
      Overlay.notify overlay (Overlay.Peer_changed i);
      (* The old last level pointed at the sibling half — now the same
         partition; clear it so the routing table mirrors the path. *)
      Node.set_refs n ~level [])
    group;
  let copied = ref 0 in
  List.iter (fun i -> copied := !copied + top_up overlay union i parent) group;
  List.iter
    (fun i ->
      let n = node overlay i in
      Node.clear_replicas n;
      List.iter (fun r -> if r <> i then Node.add_replica n r) group)
    group;
  if Telemetry.active telemetry then
    Telemetry.emit telemetry
      (Event.Retract
         {
           path = Path.to_string path;
           members = List.length group;
           merged_keys = !copied;
         });
  !copied

(* --- pass ------------------------------------------------------------------ *)

(* What a pass sees of the overlay's partition index, as the last
   refresh left it: every partition, or under [restrict] only its
   admitted online members, with the load over those.  A partition
   without one is invisible to a restricted pass, but its offline
   members still count. *)
type sight = {
  count : int;
  members : int -> Node.id list;
  load : int -> int;
  restricted : bool;
}

let look ?restrict overlay =
  let count = Overlay.partitions overlay in
  let all i = (Overlay.partition overlay i).Overlay.members in
  match restrict with
  | None -> { count; members = all; load = Overlay.load overlay; restricted = false }
  | Some f ->
    let members = Array.init count (fun i -> List.filter f (all i)) in
    let loads = Array.map (Overlay.load_of overlay) members in
    { count; members = Array.get members; load = Array.get loads; restricted = true }

let visible v i = (not v.restricted) || v.members i <> []

let path overlay i = (Overlay.partition overlay i).Overlay.path
let offline overlay i = (Overlay.partition overlay i).Overlay.offline

(* The slot of the first split the sight allows, in path order, or -1. *)
let find_split cfg overlay v =
  let rec go i =
    if i >= v.count then -1
    else if
      v.load i > cfg.d_max
      && offline overlay i = 0
      && List.length (v.members i) > 2 * cfg.n_min
      && Path.length (path overlay i) < Key.bits
    then i
    else go (i + 1)
  in
  go 0

(* Whether a [visible] partition lies strictly below the one in slot [i]. *)
let inhabited_below overlay v i =
  let _, past = Overlay.subtree overlay (path overlay i) in
  let rec go j = j < past && (visible v j || go (j + 1)) in
  go (i + 1)

(* The slots of the first retraction the sight allows, with its sibling:
   an all-online partition at the floors whose sibling is an all-online
   leaf, with enough headroom that the merged partition stays below
   [d_max]. *)
let find_retract cfg overlay v =
  let rec go i =
    if i >= v.count then None
    else begin
      let p = path overlay i in
      let j =
        if
          offline overlay i = 0
          && Path.length p >= 1
          && v.members i <> []
          && List.length (v.members i) <= cfg.retract_members
          && v.load i <= cfg.retract_load
        then Overlay.find overlay (Path.sibling p)
        else -1
      in
      if
        j >= 0
        && offline overlay j = 0
        && v.members j <> []
        (* leaf test: nothing lives strictly below either half *)
        && (not (inhabited_below overlay v i))
        && (not (inhabited_below overlay v j))
        && v.load i + v.load j <= cfg.d_max
      then Some (i, j)
      else go (i + 1)
    end
  in
  go 0

let pass ?(telemetry = Pgrid_telemetry.Global.get ()) ?restrict rng overlay cfg =
  validate cfg;
  (* [restrict] narrows the pass to one reachability island: members the
     predicate rejects are invisible (not offline — an island balances as
     if the far side does not exist, which is precisely how independent
     split decisions arise during a partition).  [None] filters nothing
     and leaves the draw sequence bit-identical.  Each action's writes
     list the peers it re-homed in the overlay's census, so the next
     look refreshes the index from those alone. *)
  let v = ref (look ?restrict overlay) in
  let splits = ref 0 and retracts = ref 0 in
  let migrated = ref 0 and copied = ref 0 in
  let progress = ref true in
  while !progress && !splits + !retracts < cfg.max_actions do
    let i = find_split cfg overlay !v in
    if i >= 0 then begin
      let dropped, c =
        split_partition ~telemetry rng overlay ~path:(path overlay i)
          ~members:(!v.members i) cfg
      in
      migrated := !migrated + dropped;
      copied := !copied + c;
      incr splits
    end
    else begin
      match find_retract cfg overlay !v with
      | Some (i, j) ->
        copied :=
          !copied
          + retract_partition ~telemetry overlay ~path:(path overlay i)
              ~members:(!v.members i) ~sibling_members:(!v.members j);
        incr retracts
      | None -> progress := false
    end;
    if !progress then v := look ?restrict overlay
  done;
  let max_load = ref 0 in
  for i = 0 to !v.count - 1 do
    max_load := max !max_load (!v.load i)
  done;
  let max_load = !max_load in
  if Telemetry.active telemetry then
    Telemetry.emit telemetry
      (Event.Balance_pass { max_load; splits = !splits; retracts = !retracts });
  { splits = !splits; retracts = !retracts; migrated_keys = !migrated;
    copied_keys = !copied; max_load }
