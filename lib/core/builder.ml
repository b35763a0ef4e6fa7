module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Reference = Pgrid_partition.Reference

(* Largest-remainder rounding of fractional counts to a fixed total. *)
let apportion fractions total =
  let floors = Array.map (fun f -> int_of_float (Float.floor f)) fractions in
  let assigned = Array.fold_left ( + ) 0 floors in
  let remainder = total - assigned in
  if remainder < 0 then invalid_arg "Builder.apportion: counts exceed total";
  let order =
    Array.init (Array.length fractions) (fun i -> i)
    |> Array.to_list
    |> List.sort (fun a b ->
           compare
             (fractions.(b) -. Float.of_int floors.(b))
             (fractions.(a) -. Float.of_int floors.(a)))
  in
  List.iteri (fun rank i -> if rank < remainder then floors.(i) <- floors.(i) + 1) order;
  floors

let of_reference rng ~reference ~keys ~refs_per_level =
  if refs_per_level < 1 then invalid_arg "Builder.of_reference: refs_per_level >= 1";
  let partitions = Array.of_list reference.Reference.partitions in
  let total = int_of_float (Float.round (Reference.total_peers reference)) in
  let counts = apportion (Array.map (fun p -> p.Reference.peers) partitions) total in
  (* Guarantee progress: every partition needs at least one peer to host
     its keys; steal from the most-populated partitions if rounding left
     some empty (only possible for tiny populations). *)
  let deficit = ref 0 in
  Array.iteri (fun i c -> if c = 0 then begin counts.(i) <- 1; incr deficit end) counts;
  while !deficit > 0 do
    let richest = ref 0 in
    Array.iteri (fun i c -> if c > counts.(!richest) then richest := i) counts;
    if counts.(!richest) <= 1 then deficit := 0
    else begin
      counts.(!richest) <- counts.(!richest) - 1;
      decr deficit
    end
  done;
  let population = Array.fold_left ( + ) 0 counts in
  let overlay = Overlay.create rng ~n:population in
  (* Assign ids to partitions in order. *)
  let members = Array.map (fun _ -> []) partitions in
  let next_id = ref 0 in
  Array.iteri
    (fun i count ->
      for _ = 1 to count do
        members.(i) <- !next_id :: members.(i);
        incr next_id
      done)
    counts;
  (* Paths, stores, replicas. *)
  let sorted_keys = Array.copy keys in
  Array.sort Key.compare sorted_keys;
  Array.iteri
    (fun i part ->
      let path = part.Reference.path in
      let local =
        Array.to_list sorted_keys |> List.filter (Path.matches_key path)
      in
      List.iter
        (fun id ->
          let n = Overlay.node overlay id in
          Node.set_path n path;
          List.iter (Node.ensure_key n) local;
          List.iter (fun other -> if other <> id then Node.add_replica n other)
            members.(i))
        members.(i))
    partitions;
  (* Routing references: peers of the complementary subtree per level,
     shuffled from ascending id order (every peer is online). *)
  for id = 0 to population - 1 do
    let n = Overlay.node overlay id in
    for level = 0 to Path.length n.Node.path - 1 do
      let target = Path.complement_at n.Node.path level in
      let arr = Array.of_list (List.rev (Overlay.online_below overlay target ~excluding:id)) in
      Rng.shuffle_ints rng arr;
      Array.iteri (fun rank j -> if rank < refs_per_level then Node.add_ref n ~level j) arr
    done
  done;
  overlay

let index rng ~peers ~keys ~d_max ~n_min ~refs_per_level =
  let reference = Reference.compute ~keys ~peers ~d_max ~n_min in
  of_reference rng ~reference ~keys ~refs_per_level
