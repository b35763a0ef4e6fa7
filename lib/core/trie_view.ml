module Path = Pgrid_keyspace.Path

type leaf = { path : Path.t; peers : Node.id list; keys : int }

let leaves overlay =
  let acc = ref [] in
  for i = Overlay.partitions overlay - 1 downto 0 do
    match Overlay.partition overlay i with
    | { members = []; _ } -> ()
    | { path; members = peers; _ } ->
      acc := { path; peers; keys = Overlay.load overlay i } :: !acc
  done;
  !acc

let leaf_line l =
  let indent = String.make (2 * Path.length l.path) ' ' in
  let members =
    match l.peers with
    | [] -> "(empty)"
    | ps when List.length ps <= 6 ->
      String.concat "," (List.map string_of_int ps)
    | ps -> Printf.sprintf "%d peers" (List.length ps)
  in
  Printf.sprintf "%s%s  peers[%s]  keys=%d" indent
    (if Path.length l.path = 0 then "<root>" else Path.to_string l.path)
    members l.keys

let render ?(max_leaves = 64) overlay =
  let all = leaves overlay in
  let total = List.length all in
  let shown =
    if total <= max_leaves then List.map leaf_line all
    else begin
      let head = List.filteri (fun i _ -> i < max_leaves / 2) all in
      let tail = List.filteri (fun i _ -> i >= total - (max_leaves / 2)) all in
      List.map leaf_line head
      @ [ Printf.sprintf "  ... %d partitions elided ..." (total - max_leaves) ]
      @ List.map leaf_line tail
    end
  in
  String.concat "\n"
    ((Printf.sprintf "partition trie: %d partitions, %d online peers" total
        (Overlay.online_count overlay))
    :: shown)
