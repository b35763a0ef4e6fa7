(* Tests for the construction protocol core (Pgrid_construction.Engine)
   and the behaviours added on top of the paper's base protocol:
   degenerate descents, reference exchange and key delivery. *)

module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Codec = Pgrid_keyspace.Codec
module Distribution = Pgrid_workload.Distribution
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Engine = Pgrid_construction.Engine
module Round = Pgrid_construction.Round

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let default_config =
  { Engine.n_min = 5; d_max = 50; max_fruitless = 2; refer_hops = 20; mode = Engine.Theory }

(* A tiny hand-driven engine: peers at the root with chosen keys. *)
let make_engine ?(config = default_config) key_sets =
  let rng = Rng.create ~seed:99 in
  let overlay = Overlay.create rng ~n:(Array.length key_sets) in
  Array.iteri
    (fun i ks ->
      let n = Overlay.node overlay i in
      List.iter (Node.ensure_key n) ks)
    key_sets;
  (Engine.create rng config overlay Engine.no_hooks, overlay)

let test_descent_on_one_sided_partition () =
  (* All keys share the leading bit: an overloaded root partition must
     descend without dispersing peers into the empty half. *)
  let all = Array.init 120 (fun i -> Key.of_float (0.5 +. (float_of_int i /. 400.))) in
  (* Partial, overlapping samples: identical stores would make the
     replica estimate collapse to exactly n_min and suppress splitting. *)
  let key_sets =
    Array.init 8 (fun peer ->
        Array.to_list all |> List.filteri (fun idx _ -> (idx + peer) mod 3 = 0))
  in
  let engine, overlay = make_engine key_sets in
  for _ = 1 to 200 do
    for i = 0 to 7 do
      if Engine.is_active engine i then Engine.interact engine i
    done
  done;
  let c = Engine.counters engine in
  checkb "descents happened" true (c.Engine.descents > 0);
  (* Nobody may sit in the empty half [0, 0.5). *)
  for i = 0 to 7 do
    let p = (Overlay.node overlay i).Node.path in
    if Path.length p > 0 then checki "first bit is 1" 1 (Path.bit p 0)
  done

let test_descent_counter_for_text_keys () =
  let rng = Rng.create ~seed:5 in
  let params = Round.default_params ~peers:64 in
  let o = Round.run rng params ~spec:Distribution.paper_text in
  (* ASCII term keys share their first bits, so degenerate descents are
     structural, and uniform keys need none. *)
  let rng2 = Rng.create ~seed:5 in
  let u = Round.run rng2 params ~spec:Distribution.Uniform in
  ignore u;
  checkb "text construction uses descents" true (o.Round.splits > 0);
  let s = Overlay.stats o.Round.overlay in
  checkb "paths reach beyond the shared prefix" true (s.Overlay.mean_path_length > 3.)

let test_note_useful_reactivates () =
  let reactivated = ref [] in
  let rng = Rng.create ~seed:1 in
  let overlay = Overlay.create rng ~n:4 in
  let hooks =
    { Engine.no_hooks with Engine.on_reactivate = (fun i -> reactivated := i :: !reactivated) }
  in
  let engine = Engine.create rng default_config overlay hooks in
  (* Drive peer 0 passive: its interactions with empty-store same-path
     peers are fruitless replicates. *)
  let tries = ref 0 in
  while Engine.is_active engine 0 && !tries < 50 do
    incr tries;
    Engine.interact engine 0
  done;
  checkb "peer went passive" true (not (Engine.is_active engine 0));
  Engine.note_useful engine 0;
  checkb "reactivated" true (Engine.is_active engine 0);
  checkb "hook fired" true (List.mem 0 !reactivated)

let test_deliver_routes_key () =
  let rng = Rng.create ~seed:2 in
  let overlay = Overlay.create rng ~n:2 in
  let a = Overlay.node overlay 0 and b = Overlay.node overlay 1 in
  Node.set_path a (Path.of_string "0");
  Node.set_path b (Path.of_string "1");
  Node.add_ref a ~level:0 1;
  Node.add_ref b ~level:0 0;
  let engine = Engine.create rng default_config overlay Engine.no_hooks in
  let key = Key.of_float 0.9 in
  (* Injected at the wrong peer, the key must be forwarded to peer 1. *)
  Engine.deliver engine ~at:0 key [ "v" ];
  checkb "not stored at the wrong peer" true (not (Node.has_key a key));
  checkb "stored at the responsible peer" true (Node.has_key b key);
  Alcotest.check (Alcotest.list Alcotest.string) "payload delivered" [ "v" ]
    (Node.lookup b key)

let test_deliver_fallback_keeps_key () =
  let rng = Rng.create ~seed:3 in
  let overlay = Overlay.create rng ~n:1 in
  let a = Overlay.node overlay 0 in
  Node.set_path a (Path.of_string "0");
  let engine = Engine.create rng default_config overlay Engine.no_hooks in
  let key = Key.of_float 0.9 in
  (* No route exists: the key must not be lost. *)
  Engine.deliver engine ~at:0 key [];
  checkb "kept locally rather than dropped" true (Node.has_key a key)

(* Two root peers holding the same key, only one with a payload: the
   replicate meeting adds no key in either direction, but the direction
   that carries a payload must still run. *)
let test_replicate_copies_payload_only () =
  let key = Key.of_float 0.3 in
  let engine, overlay = make_engine [| [ key ]; [ key ] |] in
  Node.insert (Overlay.node overlay 0) key "v";
  Engine.interact engine 1;
  checki "one replicate meeting" 1 (Engine.counters engine).Engine.merges;
  Alcotest.check (Alcotest.list Alcotest.string) "payload reconciled" [ "v" ]
    (Node.lookup (Overlay.node overlay 1) key);
  checki "no distinct key moved" 0 (Engine.counters engine).Engine.keys_moved

let test_counters_monotone () =
  let rng = Rng.create ~seed:4 in
  let params = Round.default_params ~peers:64 in
  let o = Round.run rng params ~spec:Distribution.Uniform in
  checkb "interactions dominate events" true
    (o.Round.interactions >= o.Round.splits + o.Round.merges);
  checkb "refer steps below interactions" true (o.Round.refer_steps <= o.Round.interactions)

let suite =
  [
    Alcotest.test_case "descent on one-sided partition" `Quick test_descent_on_one_sided_partition;
    Alcotest.test_case "descents for text keys" `Quick test_descent_counter_for_text_keys;
    Alcotest.test_case "note_useful reactivates" `Quick test_note_useful_reactivates;
    Alcotest.test_case "deliver routes keys" `Quick test_deliver_routes_key;
    Alcotest.test_case "deliver never drops keys" `Quick test_deliver_fallback_keeps_key;
    Alcotest.test_case "replicate copies payload-only" `Quick test_replicate_copies_payload_only;
    Alcotest.test_case "counters monotone" `Quick test_counters_monotone;
  ]
