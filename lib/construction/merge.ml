module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Reference = Pgrid_partition.Reference
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Deviation = Pgrid_core.Deviation

type outcome = {
  overlay : Overlay.t;
  reference : Reference.t;
  deviation : float;
  rounds : int;
  counters : Engine.counters;
}

(* Deep-copy node [src] into [dst], shifting peer ids by [offset]. *)
let copy_into ~offset src dst =
  Node.set_path dst src.Node.path;
  ignore (Node.merge_store dst ~from:src);
  for level = 0 to Path.length src.Node.path - 1 do
    Node.refs_iter src ~level (fun r -> Node.add_ref dst ~level (r + offset))
  done;
  Pgrid_core.Intset.iter
    (fun r -> Node.add_replica dst (r + offset))
    src.Node.replicas;
  Node.set_online dst src.Node.online

let overlays rng ~config ~max_rounds a b =
  if max_rounds < 1 then invalid_arg "Merge.overlays: max_rounds must be >= 1";
  let na = Overlay.size a and nb = Overlay.size b in
  let merged = Overlay.create rng ~n:(na + nb) in
  for i = 0 to na - 1 do
    copy_into ~offset:0 (Overlay.node a i) (Overlay.node merged i)
  done;
  for i = 0 to nb - 1 do
    copy_into ~offset:na (Overlay.node b i) (Overlay.node merged (na + i))
  done;
  let engine = Engine.create rng config merged Engine.no_hooks in
  let order = Array.init (na + nb) (fun i -> i) in
  let rounds = ref 0 in
  while Engine.any_active engine && !rounds < max_rounds do
    incr rounds;
    Rng.shuffle rng order;
    Array.iter (fun i -> if Engine.is_active engine i then Engine.interact engine i) order
  done;
  let all_keys =
    let tbl = Hashtbl.create 1024 in
    for i = 0 to na + nb - 1 do
      List.iter (fun k -> Hashtbl.replace tbl k ()) (Node.keys (Overlay.node merged i))
    done;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl []
    |> List.sort Key.compare
    |> Array.of_list
  in
  let reference =
    Reference.compute ~keys:all_keys ~peers:(na + nb) ~d_max:config.Engine.d_max
      ~n_min:config.Engine.n_min
  in
  {
    overlay = merged;
    reference;
    deviation = Deviation.of_overlay ~reference merged;
    rounds = !rounds;
    counters = Engine.counters engine;
  }
