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
  seed_refs : int;
  max_actions : int;
  period : float;
}

let default_config ~d_max ~n_min =
  {
    d_max;
    n_min;
    retract_load = max 1 (d_max / 4);
    retract_members = n_min;
    seed_refs = 4;
    max_actions = 32;
    period = 60.;
  }

let validate cfg =
  if cfg.d_max < 1 then invalid_arg "Balance: d_max must be >= 1";
  if cfg.n_min < 1 then invalid_arg "Balance: n_min must be >= 1";
  if cfg.retract_load < 0 then invalid_arg "Balance: negative retract_load";
  if cfg.retract_load >= cfg.d_max then
    invalid_arg "Balance: retract_load must leave headroom below d_max";
  if cfg.retract_members < 0 then invalid_arg "Balance: negative retract_members";
  if cfg.seed_refs < 1 then invalid_arg "Balance: seed_refs must be >= 1";
  if cfg.max_actions < 0 then invalid_arg "Balance: negative max_actions";
  if not (cfg.period > 0.) then invalid_arg "Balance: period must be positive"

type pass_report = {
  splits : int;
  retracts : int;
  migrated_keys : int;
  copied_keys : int;
  max_load : int;
}

let partition_load overlay members =
  List.fold_left (fun m i -> max m (Node.key_count (node overlay i))) 0 members

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
    Rng.shuffle rng pool;
    Array.iteri (fun rank r -> if rank < cfg.seed_refs then Node.add_ref n ~level r) pool
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
  (!dropped_total, !copied, side0, side1)

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

(* A pass's view of the partitions, in path order: taken from one
   [Overlay.census], then patched by every action with exactly the peers
   it re-homed, so each decision reads what a fresh census would show.
   Loads are cached, since only an action changes one and it re-files the
   partitions it touched.  Under [restrict], members are the admitted
   online peers.  A partition without one is invisible to the pass, but
   stays filed while it has offline members: they still count if a later
   action files admitted peers there. *)
type part = { path : Path.t; members : Node.id list; offline : int; load : int }

(* The parts, in the first [len] slots. *)
type view = { mutable parts : part array; mutable len : int }

let part overlay path members offline =
  { path; members; offline; load = partition_load overlay members }

let view ?restrict overlay =
  let parts =
    List.filter_map
      (fun { Overlay.path; members; offline } ->
        let members =
          match restrict with None -> members | Some f -> List.filter f members
        in
        if members = [] && offline = 0 then None
        else Some (part overlay path members offline))
      (Overlay.census overlay)
  in
  let parts = Array.of_list parts in
  { parts; len = Array.length parts }

(* The first slot whose path does not sort before [path]. *)
let seek v path =
  let lo = ref 0 and hi = ref v.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Path.compare v.parts.(mid).path path < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let find v path =
  let i = seek v path in
  if i < v.len && Path.equal v.parts.(i).path path then Some i else None

let remove v path =
  let i = seek v path in
  Array.blit v.parts (i + 1) v.parts i (v.len - i - 1);
  v.len <- v.len - 1

(* Re-home [ids] (ascending, online, admitted) under [path]. *)
let file overlay v path ids =
  match find v path with
  | Some i ->
    let p = v.parts.(i) in
    v.parts.(i) <- part overlay path (List.merge Int.compare p.members ids) p.offline
  | None ->
    let i = seek v path and p = part overlay path ids 0 in
    if v.len = Array.length v.parts then begin
      let grown = Array.make (max 8 (2 * v.len)) p in
      Array.blit v.parts 0 grown 0 v.len;
      v.parts <- grown
    end;
    Array.blit v.parts i v.parts (i + 1) (v.len - i);
    v.parts.(i) <- p;
    v.len <- v.len + 1

(* The first split the view allows, in path order. *)
let find_split cfg v =
  let rec go i =
    if i >= v.len then None
    else begin
      let p = v.parts.(i) in
      if
        p.load > cfg.d_max
        && p.offline = 0
        && List.length p.members > 2 * cfg.n_min
        && Path.length p.path < Key.bits
      then Some p
      else go (i + 1)
    end
  in
  go 0

(* Whether a [visible] part lies strictly below the one in slot [i]:
   those directly follow it in path order. *)
let inhabited_below v ~visible i =
  let path = v.parts.(i).path in
  let rec go j =
    j < v.len
    && Path.is_prefix_of ~prefix:path v.parts.(j).path
    && (visible v.parts.(j) || go (j + 1))
  in
  go (i + 1)

(* The first retraction the view allows, with its sibling: an all-online
   partition at the floors whose sibling is an all-online leaf, with
   enough headroom that the merged partition stays below [d_max]. *)
let find_retract cfg ~visible v =
  let rec go i =
    if i >= v.len then None
    else begin
      let p = v.parts.(i) in
      let sibling =
        if
          p.offline = 0
          && Path.length p.path >= 1
          && p.members <> []
          && List.length p.members <= cfg.retract_members
          && p.load <= cfg.retract_load
        then find v (Path.sibling p.path)
        else None
      in
      match sibling with
      | Some j
        when let s = v.parts.(j) in
             s.offline = 0 && s.members <> []
             (* leaf test: nothing lives strictly below either half *)
             && (not (inhabited_below v ~visible i))
             && (not (inhabited_below v ~visible j))
             && p.load + s.load <= cfg.d_max ->
        Some (p, v.parts.(j))
      | _ -> go (i + 1)
    end
  in
  go 0

let pass ?(telemetry = Pgrid_telemetry.Global.get ()) ?restrict rng overlay cfg =
  validate cfg;
  (* [restrict] narrows the pass to one reachability island: members the
     predicate rejects are invisible (not offline — an island balances as
     if the far side does not exist, which is precisely how independent
     split decisions arise during a partition).  [None] filters nothing
     and leaves the draw sequence bit-identical. *)
  let visible p = restrict = None || p.members <> [] in
  let v = view ?restrict overlay in
  let splits = ref 0 and retracts = ref 0 in
  let migrated = ref 0 and copied = ref 0 in
  let progress = ref true in
  while !progress && !splits + !retracts < cfg.max_actions do
    progress := false;
    match find_split cfg v with
    | Some { path; members; _ } ->
      let dropped, c, side0, side1 =
        split_partition ~telemetry rng overlay ~path ~members cfg
      in
      remove v path;
      file overlay v (Path.extend path 0) side0;
      file overlay v (Path.extend path 1) side1;
      migrated := !migrated + dropped;
      copied := !copied + c;
      incr splits;
      progress := true
    | None -> (
      match find_retract cfg ~visible v with
      | Some (p, s) ->
        copied :=
          !copied
          + retract_partition ~telemetry overlay ~path:p.path ~members:p.members
              ~sibling_members:s.members;
        remove v p.path;
        remove v s.path;
        file overlay v (Path.parent p.path) (List.merge Int.compare p.members s.members);
        incr retracts;
        progress := true
      | None -> ())
  done;
  let max_load = ref 0 in
  for i = 0 to v.len - 1 do
    max_load := max !max_load v.parts.(i).load
  done;
  let max_load = !max_load in
  if Telemetry.active telemetry then
    Telemetry.emit telemetry
      (Event.Balance_pass { max_load; splits = !splits; retracts = !retracts });
  { splits = !splits; retracts = !retracts; migrated_keys = !migrated;
    copied_keys = !copied; max_load }
