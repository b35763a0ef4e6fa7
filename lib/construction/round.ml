module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Reference = Pgrid_partition.Reference
module Distribution = Pgrid_workload.Distribution
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Deviation = Pgrid_core.Deviation

type probabilities_mode = Theory | Heuristic

type params = {
  peers : int;
  keys_per_peer : int;
  n_min : int;
  d_max : int;
  max_fruitless : int;
  max_rounds : int;
  refer_hops : int;
  mode : probabilities_mode;
}

let default_params ~peers =
  {
    peers;
    keys_per_peer = 10;
    n_min = 5;
    d_max = 50;
    max_fruitless = 2;
    max_rounds = 500;
    refer_hops = 20;
    mode = Theory;
  }

type outcome = {
  overlay : Overlay.t;
  reference : Reference.t;
  deviation : float;
  rounds : int;
  interactions : int;
  keys_moved : int;
  replication_keys : int;
  splits : int;
  follows : int;
  merges : int;
  refer_steps : int;
}

let interactions_per_peer o =
  float_of_int o.interactions /. float_of_int (Overlay.size o.overlay)

let keys_moved_per_peer o =
  float_of_int o.keys_moved /. float_of_int (Overlay.size o.overlay)

let engine_config params =
  {
    Engine.n_min = params.n_min;
    d_max = params.d_max;
    max_fruitless = params.max_fruitless;
    refer_hops = params.refer_hops;
    mode = (match params.mode with Theory -> Engine.Theory | Heuristic -> Engine.Heuristic);
  }

(* Push every peer's keys to [n_min] random other peers (paper: performed
   at [t_init], before partitioning starts). *)
let replication_phase rng params overlay assignments =
  let copies = ref 0 in
  Array.iteri
    (fun i own ->
      let targets =
        Rng.sample_without_replacement rng
          ~k:(min params.n_min (params.peers - 1))
          ~n:(params.peers - 1)
      in
      Array.iter
        (fun raw ->
          let j = if raw >= i then raw + 1 else raw in
          let nj = Overlay.node overlay j in
          Array.iter
            (fun k ->
              Node.ensure_key nj k;
              incr copies)
            own)
        targets)
    assignments;
  !copies

let run_with_keys ?(telemetry = Pgrid_telemetry.Global.get ()) rng params ~assignments =
  if Array.length assignments <> params.peers then
    invalid_arg "Round.run_with_keys: one key set per peer required";
  if params.peers < 2 then invalid_arg "Round.run_with_keys: need at least 2 peers";
  let overlay = Overlay.create rng ~n:params.peers in
  Array.iteri
    (fun i own ->
      let n = Overlay.node overlay i in
      Array.iter (Node.ensure_key n) own)
    assignments;
  let replication_keys = replication_phase rng params overlay assignments in
  let engine = Engine.create ~telemetry rng (engine_config params) overlay Engine.no_hooks in
  let order = Array.init params.peers (fun i -> i) in
  let rounds = ref 0 in
  while Engine.any_active engine && !rounds < params.max_rounds do
    incr rounds;
    Rng.shuffle_ints rng order;
    Array.iter (fun i -> if Engine.is_active engine i then Engine.interact engine i) order
  done;
  Overlay.compact_refs overlay;
  (* Flatten + sort + dedup in place: the list pipeline this replaces
     materialized two peers*keys_per_peer element lists (a million cells
     at 100k peers) before ever reaching the sort. *)
  let all_keys =
    let total = Array.fold_left (fun acc own -> acc + Array.length own) 0 assignments in
    if total = 0 then [||]
    else begin
      let flat = Array.make total (Key.of_int 0) in
      let pos = ref 0 in
      Array.iter
        (fun own ->
          Array.iter
            (fun k ->
              flat.(!pos) <- k;
              incr pos)
            own)
        assignments;
      Array.sort Key.compare flat;
      let w = ref 1 in
      for r = 1 to total - 1 do
        if Key.compare flat.(r) flat.(!w - 1) <> 0 then begin
          flat.(!w) <- flat.(r);
          incr w
        end
      done;
      if !w = total then flat else Array.sub flat 0 !w
    end
  in
  let reference =
    Reference.compute ~keys:all_keys ~peers:params.peers ~d_max:params.d_max
      ~n_min:params.n_min
  in
  let c = Engine.counters engine in
  {
    overlay;
    reference;
    deviation = Deviation.of_overlay ~reference overlay;
    rounds = !rounds;
    interactions = c.Engine.interactions;
    keys_moved = c.Engine.keys_moved;
    replication_keys;
    splits = c.Engine.splits;
    follows = c.Engine.follows;
    merges = c.Engine.merges;
    refer_steps = c.Engine.refer_steps;
  }

let run ?telemetry rng params ~spec =
  let assignments =
    Distribution.assign_to_peers rng spec ~peers:params.peers
      ~keys_per_peer:params.keys_per_peer
  in
  run_with_keys ?telemetry rng params ~assignments
