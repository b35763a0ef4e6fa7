module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Reference = Pgrid_partition.Reference
module Distribution = Pgrid_workload.Distribution
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Deviation = Pgrid_core.Deviation

type params = {
  peers : int;
  keys_per_peer : int;
  n_min : int;
  d_max : int;
  refs_per_level : int;
}

let default_params ~peers =
  { peers; keys_per_peer = 10; n_min = 5; d_max = 50; refs_per_level = 2 }

type outcome = {
  overlay : Overlay.t;
  reference : Reference.t;
  deviation : float;
  messages : int;
  serial_latency : int;
}

type state = {
  rng : Rng.t;
  params : params;
  overlay : Overlay.t;
  mutable joined : int list;
  mutable messages : int;
  mutable latency : int;
}

let node st i = Overlay.node st.overlay i

(* Route from [entry] toward [key] among joined peers; every hop costs a
   message and a serial round-trip. *)
let route st entry key =
  let rec go cur guard =
    let n = node st cur in
    match Overlay.divergence_level n.Node.path key with
    | None -> cur
    | Some level when guard > 0 -> (
      match Node.refs_at n ~level with
      | [] -> cur
      | refs ->
        st.messages <- st.messages + 1;
        st.latency <- st.latency + 1;
        go (Rng.pick_list st.rng refs) (guard - 1))
    | Some _ -> cur
  in
  go entry (4 * Key.bits)

let copy_routing st ~from ~to_ =
  let src = node st from and dst = node st to_ in
  for level = 0 to Path.length src.Node.path - 1 do
    let keep = st.params.refs_per_level in
    List.iteri
      (fun rank r -> if rank < keep then Node.add_ref dst ~level r)
      (Node.refs_at src ~level)
  done

let join st i =
  let ni = node st i in
  match st.joined with
  | [] -> st.joined <- [ i ]
  | joined ->
    let entry = Rng.pick_list st.rng joined in
    st.messages <- st.messages + 1;
    st.latency <- st.latency + 1;
    (* Route toward one of the joiner's own keys. *)
    let anchor =
      match Node.keys ni with
      | [] -> Key.random st.rng
      | k :: _ -> k
    in
    let host_id = route st entry anchor in
    let host = node st host_id in
    let host_path = host.Node.path in
    let members =
      List.filter (fun j -> Path.equal (node st j).Node.path host_path) st.joined
    in
    (* Become a replica first: reconcile content both ways and propagate
       the joiner's keys to the co-replicas, so the whole partition sees
       the same load. *)
    copy_routing st ~from:host_id ~to_:i;
    Node.set_path ni host_path;
    ignore (Node.drop_keys_outside ni ni.Node.path);
    let merge src dst = ignore (Node.merge_store (node st dst) ~from:(node st src)) in
    List.iter
      (fun j ->
        merge i j;
        Node.add_replica ni j;
        Node.add_replica (node st j) i;
        st.messages <- st.messages + 1)
      members;
    merge host_id i;
    st.latency <- st.latency + 1;
    let population = List.length members + 1 in
    let load = Node.key_count ni in
    if
      load > st.params.d_max
      && population >= 2 * st.params.n_min
      && Path.length host_path < Key.bits
    then begin
      (* Coordinated partition split: all members (every one holds the
         full content after reconciliation) spread over the two halves
         alternately, then drop the complement keys. *)
      let level = Path.length host_path in
      let group = i :: members in
      let side_of rank = rank land 1 in
      List.iteri
        (fun rank j ->
          let nj = node st j in
          Node.set_path nj (Path.extend host_path (side_of rank));
          Node.clear_replicas nj;
          st.messages <- st.messages + 1)
        group;
      List.iteri
        (fun rank j ->
          let nj = node st j in
          ignore (Node.drop_keys_outside nj nj.Node.path);
          (* Reference peers of the opposite half and re-link replicas. *)
          List.iteri
            (fun rank' j' ->
              if side_of rank' <> side_of rank then begin
                if Node.refs_count nj ~level < st.params.refs_per_level then
                  Node.add_ref nj ~level j'
              end
              else if j' <> j then Node.add_replica nj j')
            group)
        group;
      st.latency <- st.latency + 1
    end;
    (* Insert the joiner's remaining out-of-partition keys by routing
       (routing reads no store, so cutting them all first changes
       nothing; see [Engine.hand_over]). *)
    List.iter
      (fun (k, payloads) ->
        ignore (Node.merge_key (node st (route st i k)) k payloads);
        st.messages <- st.messages + 1;
        st.latency <- st.latency + 1)
      (Node.cut_outside ni ni.Node.path);
    st.joined <- i :: st.joined

let run rng params ~spec =
  if params.peers < 2 then invalid_arg "Sequential.run: need at least 2 peers";
  let overlay = Overlay.create rng ~n:params.peers in
  let assignments =
    Distribution.assign_to_peers rng spec ~peers:params.peers
      ~keys_per_peer:params.keys_per_peer
  in
  Array.iteri
    (fun i own ->
      let n = Overlay.node overlay i in
      Array.iter (Node.ensure_key n) own)
    assignments;
  let st = { rng; params; overlay; joined = []; messages = 0; latency = 0 } in
  for i = 0 to params.peers - 1 do
    join st i
  done;
  let all_keys =
    Array.to_list assignments
    |> List.concat_map Array.to_list
    |> List.sort_uniq Key.compare
    |> Array.of_list
  in
  let reference =
    Reference.compute ~keys:all_keys ~peers:params.peers ~d_max:params.d_max
      ~n_min:params.n_min
  in
  {
    overlay;
    reference;
    deviation = Deviation.of_overlay ~reference overlay;
    messages = st.messages;
    serial_latency = st.latency;
  }
