(* Tests for Pgrid_query: batch lookup, range measurement, and the
   caching engine (Qcache + Engine). *)

module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Distribution = Pgrid_workload.Distribution
module Builder = Pgrid_core.Builder
module Overlay = Pgrid_core.Overlay
module Node = Pgrid_core.Node
module Balance = Pgrid_core.Balance
module Event = Pgrid_telemetry.Event
module Telemetry = Pgrid_telemetry.Telemetry
module Ring = Pgrid_telemetry.Ring
module Sink = Pgrid_telemetry.Sink
module Query = Pgrid_query.Query
module Engine = Pgrid_query.Engine
module Qcache = Pgrid_query.Qcache
module Storm = Pgrid_query.Storm
module Sim = Pgrid_simnet.Sim
module Net = Pgrid_simnet.Net
module Latency = Pgrid_simnet.Latency
module Breaker = Pgrid_simnet.Breaker
module Round = Pgrid_construction.Round
module Sample = Pgrid_prng.Sample

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let build seed =
  let rng = Rng.create ~seed in
  let keys = Distribution.generate rng Distribution.Uniform ~n:1500 in
  let overlay = Builder.index rng ~peers:150 ~keys ~d_max:50 ~n_min:5 ~refs_per_level:2 in
  (overlay, keys)

let test_lookup_batch () =
  let overlay, keys = build 1 in
  let rng = Rng.create ~seed:11 in
  let s = Query.lookup_batch rng overlay ~keys ~count:300 in
  checki "all issued" 300 s.Query.issued;
  checki "all routed on a healthy overlay" 300 s.Query.routed;
  checki "all found" 300 s.Query.found;
  checkb "hops positive and bounded" true (s.Query.mean_hops >= 0. && s.Query.max_hops <= 2 * Key.bits)

let test_lookup_hops_law () =
  (* The paper observes hops ~ half the trie depth. *)
  let overlay, keys = build 2 in
  let rng = Rng.create ~seed:12 in
  let s = Query.lookup_batch rng overlay ~keys ~count:500 in
  let stats = Overlay.stats overlay in
  let expectation = stats.Overlay.mean_path_length /. 2. in
  checkb "mean hops near half the path length" true
    (Float.abs (s.Query.mean_hops -. expectation) < 1.0)

let test_lookup_under_failures () =
  (* Extra reference redundancy, as a deployment under churn would use. *)
  let rng0 = Rng.create ~seed:3 in
  let all_keys = Distribution.generate rng0 Distribution.Uniform ~n:1500 in
  let overlay =
    Builder.index rng0 ~peers:150 ~keys:all_keys ~d_max:50 ~n_min:5 ~refs_per_level:4
  in
  let keys = all_keys in
  let rng = Rng.create ~seed:13 in
  for i = 0 to Overlay.size overlay - 1 do
    if Rng.float rng < 0.15 then Node.set_online (Overlay.node overlay i) false
  done;
  let s = Query.lookup_batch rng overlay ~keys ~count:300 in
  checkb "most lookups survive failures" true (s.Query.routed > 240)

let test_lookup_invalid () =
  let overlay, _ = build 4 in
  let rng = Rng.create ~seed:14 in
  Alcotest.check_raises "no keys" (Invalid_argument "Query.lookup_batch: no keys")
    (fun () -> ignore (Query.lookup_batch rng overlay ~keys:[||] ~count:5))

let test_range_batch () =
  let overlay, _ = build 5 in
  let rng = Rng.create ~seed:15 in
  let s = Query.range_batch rng overlay ~count:50 ~width:0.05 in
  checki "ranges issued" 50 s.Query.ranges;
  checkb "visits at least one partition" true (s.Query.mean_partitions >= 1.);
  (* 5% of 1500 uniform keys is about 75 results. *)
  checkb "plausible result volume" true
    (s.Query.mean_results > 40. && s.Query.mean_results < 120.)

let test_range_width_scaling () =
  let overlay, _ = build 6 in
  let rng = Rng.create ~seed:16 in
  let narrow = Query.range_batch rng overlay ~count:40 ~width:0.02 in
  let wide = Query.range_batch rng overlay ~count:40 ~width:0.2 in
  checkb "wider ranges touch more partitions" true
    (wide.Query.mean_partitions > narrow.Query.mean_partitions);
  checkb "wider ranges return more results" true
    (wide.Query.mean_results > narrow.Query.mean_results)

let test_range_invalid () =
  let overlay, _ = build 7 in
  let rng = Rng.create ~seed:17 in
  Alcotest.check_raises "zero width" (Invalid_argument "Query.range_batch: bad width")
    (fun () -> ignore (Query.range_batch rng overlay ~count:5 ~width:0.));
  Alcotest.check_raises "width above one"
    (Invalid_argument "Query.range_batch: bad width") (fun () ->
      ignore (Query.range_batch rng overlay ~count:5 ~width:1.000001))

let test_range_full_width () =
  (* width = 1.0 is a legal full scan: every range must cover the whole
     key space and return every stored key. *)
  let overlay, keys = build 10 in
  let rng = Rng.create ~seed:18 in
  let s = Query.range_batch rng overlay ~count:10 ~width:1.0 in
  checki "ranges issued" 10 s.Query.ranges;
  let distinct =
    float_of_int (List.length (List.sort_uniq Key.compare (Array.to_list keys)))
  in
  checkb "full scans return the entire key population" true
    (s.Query.mean_results >= distinct -. 0.5)

let test_conjunctive () =
  let overlay, _ = build 8 in
  let k1 = Key.of_float 0.111 and k2 = Key.of_float 0.777 in
  ignore (Overlay.insert overlay ~from:0 k1 "doc-a");
  ignore (Overlay.insert overlay ~from:0 k1 "doc-b");
  ignore (Overlay.insert overlay ~from:0 k2 "doc-b");
  ignore (Overlay.insert overlay ~from:0 k2 "doc-c");
  let r = Query.conjunctive overlay ~from:9 [ k1; k2 ] in
  Alcotest.check (Alcotest.list Alcotest.string) "intersection" [ "doc-b" ] r.Query.matches;
  checki "both resolved" 2 r.Query.resolved;
  checkb "hops accumulated" true (r.Query.total_hops >= 0)

let test_conjunctive_empty_keys () =
  let overlay, _ = build 9 in
  Alcotest.check_raises "no keys" (Invalid_argument "Query.conjunctive: no keys")
    (fun () -> ignore (Query.conjunctive overlay ~from:0 []))

(* Take every replica of [key]'s partition offline, so lookups for it
   dead-end. *)
let darken_partition overlay key =
  let origin = ref None in
  for i = 0 to Overlay.size overlay - 1 do
    let n = Overlay.node overlay i in
    if Node.responsible_for n key then Node.set_online n false
    else if !origin = None && n.Node.online then origin := Some i
  done;
  Option.get !origin

let test_conjunctive_skips_unresolved () =
  (* Regression: an unresolved key must be skipped, not treated as an
     empty posting list that annihilates the whole intersection. *)
  let overlay, _ = build 8 in
  let k1 = Key.of_float 0.111 and k2 = Key.of_float 0.777 in
  ignore (Overlay.insert overlay ~from:0 k1 "doc-a");
  ignore (Overlay.insert overlay ~from:0 k1 "doc-b");
  ignore (Overlay.insert overlay ~from:0 k2 "doc-b");
  let from = darken_partition overlay k2 in
  let r = Query.conjunctive overlay ~from [ k1; k2 ] in
  checki "only the live key resolved" 1 r.Query.resolved;
  Alcotest.check (Alcotest.list Alcotest.string)
    "dark partition does not annihilate the intersection" [ "doc-a"; "doc-b" ]
    r.Query.matches

let test_conjunctive_all_unresolved () =
  let overlay, _ = build 9 in
  let k = Key.of_float 0.42 in
  ignore (Overlay.insert overlay ~from:0 k "doc-a");
  let from = darken_partition overlay k in
  let r = Query.conjunctive overlay ~from [ k; k ] in
  checki "nothing resolved" 0 r.Query.resolved;
  Alcotest.check (Alcotest.list Alcotest.string) "no fabricated matches" []
    r.Query.matches

let test_conjunctive_duplicate_keys () =
  (* The same key twice is idempotent: its posting list intersected with
     itself. *)
  let overlay, _ = build 8 in
  let k = Key.of_float 0.333 in
  ignore (Overlay.insert overlay ~from:0 k "doc-a");
  ignore (Overlay.insert overlay ~from:0 k "doc-b");
  let r = Query.conjunctive overlay ~from:9 [ k; k; k ] in
  checki "every instance resolved" 3 r.Query.resolved;
  Alcotest.check (Alcotest.list Alcotest.string) "idempotent intersection"
    [ "doc-a"; "doc-b" ] r.Query.matches

let test_conjunctive_dedups_payloads () =
  (* Replicated payloads must not produce duplicate matches, and the
     result comes back sorted. *)
  let overlay, _ = build 8 in
  let k1 = Key.of_float 0.2 and k2 = Key.of_float 0.9 in
  List.iter
    (fun p ->
      ignore (Overlay.insert overlay ~from:0 k1 p);
      ignore (Overlay.insert overlay ~from:1 k2 p))
    [ "doc-z"; "doc-m"; "doc-a"; "doc-m" ];
  let r = Query.conjunctive overlay ~from:5 [ k1; k2 ] in
  Alcotest.check (Alcotest.list Alcotest.string) "sorted, deduplicated"
    [ "doc-a"; "doc-m"; "doc-z" ] r.Query.matches

(* The sort-then-merge intersection must agree with the quadratic
   pairwise [List.mem] filter it replaced, on the same searched posting
   lists: build an overlay, index random documents under random key
   sets, and compare both algorithms on random conjunctive queries. *)
let qcheck_conjunctive_merge_equiv =
  QCheck.Test.make ~name:"merge intersection = pairwise filter" ~count:30
    QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let keys = Distribution.generate rng Distribution.Uniform ~n:400 in
      let overlay =
        Builder.index rng ~peers:60 ~keys ~d_max:50 ~n_min:3 ~refs_per_level:2
      in
      for d = 0 to 39 do
        let doc = Printf.sprintf "doc-%03d" d in
        let n_keys = 1 + Rng.int rng 5 in
        for _ = 1 to n_keys do
          let k = keys.(Rng.int rng (Array.length keys)) in
          ignore (Overlay.insert overlay ~from:(Rng.int rng 60) k doc)
        done
      done;
      let reference query_keys ~from =
        let postings =
          List.filter_map
            (fun k ->
              let r = Overlay.search overlay ~from k in
              match r.Overlay.responsible with
              | Some _ -> Some (List.sort_uniq compare r.Overlay.payloads)
              | None -> None)
            query_keys
        in
        match postings with
        | [] -> []
        | first :: rest ->
          List.fold_left
            (fun acc l -> List.filter (fun d -> List.mem d l) acc)
            first rest
      in
      let ok = ref true in
      for _ = 1 to 20 do
        let n_keys = 1 + Rng.int rng 4 in
        let query_keys =
          List.init n_keys (fun _ -> keys.(Rng.int rng (Array.length keys)))
        in
        let from = Rng.int rng 60 in
        let expected = reference query_keys ~from in
        let got = (Query.conjunctive overlay ~from query_keys).Query.matches in
        if got <> expected then ok := false
      done;
      !ok)

(* --- Storm: asynchronous lookups over the simulated network --------------- *)

let storm_setup ?service ?(cfg = Storm.default_config) ?(loss = 0.) seed =
  let overlay, keys = build seed in
  let sim = Sim.create () in
  let net =
    Net.create ?service sim (Rng.create ~seed:(seed + 50))
      ~nodes:(Overlay.size overlay) ~latency:(Latency.Fixed 0.05) ~loss ~bucket:60.
  in
  (* The storm's generator also draws the tests' random origins. *)
  let srng = Rng.create ~seed:(seed + 51) in
  let storm = Storm.create sim srng overlay net cfg in
  (overlay, keys, sim, net, srng, storm)

let test_storm_completes () =
  let overlay, keys, sim, _net, srng, storm = storm_setup 21 in
  let rng = Rng.create ~seed:61 in
  for _ = 1 to 200 do
    let origin = Overlay.random_online overlay srng ~excluding:(-1) in
    checkb "origin found" true (origin >= 0);
    Storm.issue storm ~origin ~key:keys.(Rng.int rng (Array.length keys))
  done;
  Sim.run sim;
  let s = Storm.stats storm in
  checki "all issued" 200 s.Storm.issued;
  checki "all succeed on a healthy lossless net" 200 s.Storm.succeeded;
  checki "none in flight at quiescence" 0 (Storm.in_flight storm);
  checki "completions recorded" 200 (List.length (Storm.completions storm));
  (* An origin that is itself responsible completes in the same instant,
     so latency is >= 0, not strictly positive. *)
  checkb "latency non-negative" true
    (List.for_all
       (fun c -> c.Storm.finished_at >= c.Storm.issued_at)
       (Storm.completions storm))

(* A hop that resolves cancels its timeout, so a lossless storm without
   hedging leaves nothing queued once its last lookup has finished, long
   before the first 4 s timeout could have fired. *)
let test_storm_resolved_hops_leave_nothing_queued () =
  let overlay, keys, sim, _net, srng, storm = storm_setup 21 in
  let rng = Rng.create ~seed:63 in
  for _ = 1 to 200 do
    let origin = Overlay.random_online overlay srng ~excluding:(-1) in
    Storm.issue storm ~origin ~key:keys.(Rng.int rng (Array.length keys))
  done;
  while List.length (Storm.completions storm) < 200 do
    Sim.run_until sim ~time:(Sim.now sim +. 0.01)
  done;
  checkb "finished before any timeout" true
    (Sim.now sim < Storm.default_config.Storm.req_timeout);
  checki "all succeeded" 200 (Storm.stats storm).Storm.succeeded;
  checki "nothing in flight" 0 (Storm.in_flight storm);
  checki "nothing queued" 0 (Sim.pending sim)

let test_storm_deterministic () =
  let run () =
    let overlay, keys, sim, _net, srng, storm = storm_setup 22 in
    let rng = Rng.create ~seed:62 in
    for _ = 1 to 100 do
      let origin = Overlay.random_online overlay srng ~excluding:(-1) in
      Storm.issue storm ~origin ~key:keys.(Rng.int rng (Array.length keys))
    done;
    Sim.run sim;
    let s = Storm.stats storm in
    (s.Storm.succeeded, s.Storm.timeouts,
     List.map (fun c -> c.Storm.finished_at) (Storm.completions storm))
  in
  Alcotest.(check (triple int int (list (float 0.)))) "same seeds, same run"
    (run ()) (run ())

(* The benchmark's simnet-storm configuration at toy size: a 300-peer
   [Round.run] overlay, Poisson arrivals of Zipf-1.1 keys at 200/s for
   10 simulated seconds (about 2k lookups), PlanetLab latency, 2% loss
   and five retries.  The digest covers every completion, the messages
   sent and the events processed, so a change that moves one reference
   shuffle, draw or event of the storm changes it. *)
let storm_perf_digest () =
  let seed = 20050830 in
  let built =
    Round.run (Rng.create ~seed) (Round.default_params ~peers:300)
      ~spec:Distribution.Uniform
  in
  let overlay = built.Round.overlay in
  ignore (Overlay.anti_entropy overlay);
  let keys = Distribution.generate (Rng.create ~seed:(seed + 1)) Distribution.Uniform ~n:1000 in
  let zipf = Sample.Zipf.create ~n:(Array.length keys) ~s:1.1 in
  let sim = Sim.create () in
  let net =
    Net.create sim (Rng.create ~seed:(seed + 4)) ~nodes:(Overlay.size overlay)
      ~latency:Latency.planetlab ~loss:0.02 ~bucket:60.
  in
  let storm =
    Storm.create sim (Rng.create ~seed:(seed + 3)) overlay net
      { Storm.default_config with max_retries = 5 }
  in
  let arrivals = Rng.create ~seed:(seed + 2) in
  let rec arrive () =
    Storm.issue storm
      ~origin:(Rng.int arrivals (Overlay.size overlay))
      ~key:keys.(Sample.Zipf.draw zipf arrivals - 1);
    let delay = Sample.exponential arrivals ~rate:200. in
    if Sim.now sim +. delay < 10. then Sim.schedule sim ~delay arrive
  in
  Sim.schedule sim ~delay:(Sample.exponential arrivals ~rate:200.) arrive;
  Sim.run sim;
  let b = Buffer.create 65536 in
  List.iter
    (fun c ->
      Printf.bprintf b "%h %h %d %b\n" c.Storm.issued_at c.Storm.finished_at c.Storm.hops
        c.Storm.success)
    (Storm.completions storm);
  Printf.bprintf b "issued %d sent %d processed %d\n" (Storm.stats storm).Storm.issued
    (Net.messages_sent net) (Sim.processed sim);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_storm_perf_config_pinned () =
  let first = storm_perf_digest () in
  Alcotest.(check string) "second run, same digest" first (storm_perf_digest ());
  Alcotest.(check string) "pinned digest" "82e43a26f5dd6269ae2af5941059d7f8" first

let test_storm_sheds_under_burst () =
  (* Service rate 1 msg/s against a same-instant burst: almost the whole
     burst must shed at the lone responsible replicas. *)
  let service =
    { Net.service_rate = 1.; queue_capacity = 4; query_threshold = 2 }
  in
  let overlay, keys, sim, net, srng, storm = storm_setup ~service 23 in
  for _ = 1 to 300 do
    Storm.issue storm ~origin:(Overlay.random_online overlay srng ~excluding:(-1)) ~key:keys.(0)
  done;
  Sim.run sim;
  let s = Storm.stats storm in
  checkb "queries shed" true (s.Storm.sheds_query > 0);
  checki "sheds all query class" s.Storm.sheds s.Storm.sheds_query;
  checkb "queue bounded" true ((Storm.stats storm).Storm.queue_peak <= 4);
  checki "net agrees" (Net.messages_shed net) s.Storm.sheds

let test_storm_hedge_dodges_dead_primary () =
  (* Kill one peer without telling the network layer's churn hooks: its
     requests time out.  With hedging the walk detours long before the
     full retry ladder (3 x 4 s backoff) elapses. *)
  let cfg =
    { Storm.default_config with hedge_after = Some 0.5; max_retries = 0 }
  in
  let overlay, keys, sim, net, _srng, storm = storm_setup ~cfg 24 in
  ignore overlay;
  (* Make every peer's first-choice reference look dead by dropping 30%
     of peers from the network (they stay "online" in the overlay, so
     routing still tries them). *)
  let rng = Rng.create ~seed:64 in
  for i = 0 to Net.nodes net - 1 do
    if Rng.float rng < 0.2 then Net.set_online net i false
  done;
  let orng = Rng.create ~seed:65 in
  let issued = ref 0 in
  for _ = 1 to 150 do
    (* Originate from peers still attached to the network. *)
    let origin = Rng.int orng (Net.nodes net) in
    if Net.online net origin then begin
      incr issued;
      Storm.issue storm ~origin ~key:keys.(Rng.int orng (Array.length keys))
    end
  done;
  Sim.run sim;
  let s = Storm.stats storm in
  checki "every lookup resolved" !issued (s.Storm.succeeded + s.Storm.failed);
  checkb "hedges launched" true (s.Storm.hedges > 0);
  checkb "some hedges won" true (s.Storm.hedge_wins > 0);
  (* With only two references per level a hop can find both choices
     dead, so demand a solid majority rather than near-perfection. *)
  checkb "most lookups still succeed" true
    (float_of_int s.Storm.succeeded >= 0.6 *. float_of_int !issued)

let test_storm_breaker_opens () =
  let cfg =
    {
      Storm.default_config with
      req_timeout = 0.5;
      max_retries = 0;
      breaker = Some { Breaker.failures = 2; cooldown = 1000. };
    }
  in
  let _overlay, keys, sim, net, _srng, storm = storm_setup ~cfg 25 in
  (* Detach a third of the peers: repeated timeouts against them must
     trip their circuits and stop the hammering. *)
  let rng = Rng.create ~seed:66 in
  for i = 0 to Net.nodes net - 1 do
    if Rng.float rng < 0.3 then Net.set_online net i false
  done;
  let orng = Rng.create ~seed:67 in
  for _ = 1 to 300 do
    let origin = Rng.int orng (Net.nodes net) in
    if Net.online net origin then
      Storm.issue storm ~origin ~key:keys.(Rng.int orng (Array.length keys))
  done;
  Sim.run sim;
  let s = Storm.stats storm in
  checkb "circuits opened" true (s.Storm.breaker_opens > 0);
  checkb "open circuits skipped on later walks" true (s.Storm.breaker_skips > 0)

(* A fixed-seed storm for one hot key over a lossy PlanetLab-latency net
   with a third of the peers detached, hedging after 0.4 s and breakers
   that open on one timeout and half-open 1.5 s later — short enough that
   siblings skipped when a hedge picks its backup are admitted again by
   the time both arms die.  The pinned stats and latencies depend on the
   fallback order after a hedge (skipped siblings first, in shuffled
   order): reversing, dropping or moving the skipped siblings each
   changes them.  They were recorded with hedge losers releasing their
   half-open probes (the run without that release left 16 circuits
   half-open for good). *)
let hedged_storm () =
  let rng = Rng.create ~seed:27 in
  let keys = Distribution.generate rng Distribution.Uniform ~n:1500 in
  let overlay =
    Builder.index rng ~peers:100 ~keys ~d_max:50 ~n_min:5 ~refs_per_level:5
  in
  let sim = Sim.create () in
  let net =
    Net.create sim (Rng.create ~seed:77) ~nodes:(Overlay.size overlay)
      ~latency:Latency.planetlab ~loss:0.05 ~bucket:60.
  in
  let cfg =
    {
      Storm.default_config with
      req_timeout = 1.;
      max_retries = 1;
      hedge_after = Some 0.4;
      breaker = Some { Breaker.failures = 1; cooldown = 1.5 };
    }
  in
  let storm = Storm.create sim (Rng.create ~seed:78) overlay net cfg in
  let drng = Rng.create ~seed:79 in
  for i = 0 to Net.nodes net - 1 do
    if Rng.float drng < 0.3 then Net.set_online net i false
  done;
  for i = 0 to 79 do
    let origin = Rng.int drng (Net.nodes net) in
    if Net.online net origin then
      Sim.schedule sim ~delay:(0.25 *. float_of_int i) (fun () ->
          Storm.issue storm ~origin ~key:keys.(0))
  done;
  Sim.run sim;
  storm

let test_storm_hedged_pinned () =
  let storm = hedged_storm () in
  let s = Storm.stats storm in
  Alcotest.(check (list (pair string int)))
    "stats"
    [
      ("issued", 64); ("succeeded", 60); ("failed", 4); ("timeouts", 171);
      ("retries", 65); ("give_ups", 106); ("hedges", 129); ("hedge_wins", 47);
      ("breaker_opens", 86); ("breaker_skips", 20);
    ]
    [
      ("issued", s.Storm.issued); ("succeeded", s.Storm.succeeded);
      ("failed", s.Storm.failed); ("timeouts", s.Storm.timeouts);
      ("retries", s.Storm.retries); ("give_ups", s.Storm.give_ups);
      ("hedges", s.Storm.hedges); ("hedge_wins", s.Storm.hedge_wins);
      ("breaker_opens", s.Storm.breaker_opens);
      ("breaker_skips", s.Storm.breaker_skips);
    ];
  let latencies =
    List.sort compare
      (List.map
         (fun c -> c.Storm.finished_at -. c.Storm.issued_at)
         (Storm.completions storm))
  in
  Alcotest.(check (list (float 0.)))
    "sorted latencies"
    [
      0x0p+0; 0x0p+0; 0x0p+0; 0x0p+0; 0x0p+0; 0x1.2aab1aac6a84p-2;
      0x1.62e349f18a88p-2; 0x1.75bdb92addf22p-2; 0x1.e41d82d5c9f8p-2;
      0x1.e50833e0f308p-2; 0x1.3219f9a0bbfep-1; 0x1.8c7721231354p-1;
      0x1.aad17118ef34p-1; 0x1.e442372f1b36p-1; 0x1.10013bc73478p+0;
      0x1.113ada9d1584p+0; 0x1.20df8959c2f18p+0; 0x1.25603f9133f4p+0;
      0x1.373af625cc47p+0; 0x1.39b8f00237348p+0; 0x1.7bcab18f9916p+0;
      0x1.8ce09e3350b9p+0; 0x1.9f189aef51958p+0; 0x1.a44a098ad158cp+0;
      0x1.bc59a27b10f06p+0; 0x1.d2a87f195c028p+0; 0x1.dff675cafb958p+0;
      0x1.dfff7a34a335p+0; 0x1.f96833900c07p+0; 0x1.2fabe0472d258p+1;
      0x1.9591f2fff2b9cp+1; 0x1.a5d956d17468p+1; 0x1.cba3cc4e89e48p+1;
      0x1.d9cd51e871938p+1; 0x1.dd7b2568d29ep+1; 0x1.e1c2548cee02cp+1;
      0x1.e9047c0cca2bap+1; 0x1.f5bc1b4b7239p+1; 0x1.01f8c9cc42dc8p+2;
      0x1.04279a1992804p+2; 0x1.102ca913e5a7fp+2; 0x1.113753bc841e4p+2;
      0x1.11b2fcc80f002p+2; 0x1.139236ba9bap+2; 0x1.15c792ea0c904p+2;
      0x1.27d7b028a819p+2; 0x1.3741fe505bc9fp+2; 0x1.3efbb3d4cd58p+2;
      0x1.43890cae92efcp+2; 0x1.458c0625ca1ep+2; 0x1.61c798e47167p+2;
      0x1.8bd1c74149b6cp+2; 0x1.d47010a1f2da8p+2; 0x1.d8f91ad78ece8p+2;
      0x1.e4618f8f2613p+2; 0x1.072ef71e6d192p+3; 0x1.0bbdaf89003dcp+3; 0x1.2p+3;
      0x1.209b3d6f2a09ap+3; 0x1.26327ab0c133ap+3; 0x1.3658d6dca2026p+3;
      0x1.66534333f2dc7p+3; 0x1.70bf7ac871bbcp+3; 0x1.fdee7190e4c7ep+3;
    ]
    latencies

(* A fixed-seed storm over a lossy PlanetLab-latency net with a third of
   the peers detached, jittered timeouts and correction-on-use after two
   consecutive timeouts: every eviction redraws the level's references,
   and a hop that runs out of candidates takes its level's second
   snapshot before giving up.  Lookups of many keys overlap, so walks
   finish and start while others wait on their timers.  The pinned stats
   and latencies move if one jitter draw, snapshot, eviction or event
   of the storm does. *)
let evicting_storm () =
  let rng = Rng.create ~seed:28 in
  let keys = Distribution.generate rng Distribution.Uniform ~n:1500 in
  let overlay =
    Builder.index rng ~peers:120 ~keys ~d_max:50 ~n_min:5 ~refs_per_level:3
  in
  let sim = Sim.create () in
  let net =
    Net.create sim (Rng.create ~seed:87) ~nodes:(Overlay.size overlay)
      ~latency:Latency.planetlab ~loss:0.05 ~bucket:60.
  in
  let cfg =
    { Storm.default_config with req_timeout = 1.; jitter = 0.3; evict_after = Some 2 }
  in
  let storm = Storm.create sim (Rng.create ~seed:88) overlay net cfg in
  let drng = Rng.create ~seed:89 in
  for i = 0 to Net.nodes net - 1 do
    if Rng.float drng < 0.3 then Net.set_online net i false
  done;
  for i = 0 to 119 do
    let origin = Rng.int drng (Net.nodes net) in
    let key = keys.(Rng.int drng (Array.length keys)) in
    if Net.online net origin then
      Sim.schedule sim ~delay:(0.1 *. float_of_int i) (fun () ->
          Storm.issue storm ~origin ~key)
  done;
  Sim.run sim;
  storm

let test_storm_evicting_pinned () =
  let storm = evicting_storm () in
  let s = Storm.stats storm in
  checki "nothing in flight" 0 (Storm.in_flight storm);
  Alcotest.(check (list (pair string int)))
    "stats"
    [
      ("issued", 90); ("succeeded", 87); ("failed", 3); ("timeouts", 178);
      ("retries", 102); ("give_ups", 76); ("evictions", 72);
    ]
    [
      ("issued", s.Storm.issued); ("succeeded", s.Storm.succeeded);
      ("failed", s.Storm.failed); ("timeouts", s.Storm.timeouts);
      ("retries", s.Storm.retries); ("give_ups", s.Storm.give_ups);
      ("evictions", s.Storm.evictions);
    ];
  let latencies =
    List.sort compare
      (List.map
         (fun c -> c.Storm.finished_at -. c.Storm.issued_at)
         (Storm.completions storm))
  in
  Alcotest.(check (list (float 0.)))
    "sorted latencies"
    [
      0x0p+0; 0x0p+0; 0x0p+0; 0x1.d35ef9788e04p-3; 0x1.57be0f53474cp-2;
      0x1.861bdb61cbb9p-2; 0x1.8b94552794d9p-2; 0x1.940003499c93p-2;
      0x1.abfdd7914286p-2; 0x1.fe4c61c3ec2p-2; 0x1.4c6a9bc9fd89p-1;
      0x1.532194dbf65fp-1; 0x1.574cc53f02d3p-1; 0x1.59e7654c6181p-1;
      0x1.615e1ad6c018p-1; 0x1.89fcf536e0498p-1; 0x1.8bd9318ef939p-1;
      0x1.90b53e65bf67p-1; 0x1.92b106551105cp-1; 0x1.997867c22e44p-1;
      0x1.bb967304b8e99p-1; 0x1.cce8678540e9p-1; 0x1.d18834def271p-1;
      0x1.d2c8fa22e0cp-1; 0x1.10e0412d50636p+0; 0x1.1761d23c94da4p+0;
      0x1.17f0626db0454p+0; 0x1.1dfbe7485a248p+0; 0x1.29d53019f4a5cp+0;
      0x1.2f3e54d26497p+0; 0x1.330f2a72d233ap+0; 0x1.49348cb6a6b28p+0;
      0x1.5b244954ecbd8p+0; 0x1.6ea60a8eefa68p+0; 0x1.717a7bca130cp+0;
      0x1.b5d0efdf39b9p+0; 0x1.c2373a3ce1458p+0; 0x1.e1258deedff5p+0;
      0x1.eea8aa946438p+0; 0x1.133c6b64093cep+1; 0x1.2001f8a42ccdcp+1;
      0x1.2ac6d2f711973p+1; 0x1.3c7a3df78fe9ep+1; 0x1.4b32aabc12f54p+1;
      0x1.5eeeae6c362dp+1; 0x1.b9533faaf5244p+1; 0x1.e5709a4763e78p+1;
      0x1.e7de803f147bdp+1; 0x1.f8fa1600c200cp+1; 0x1.fee38aca836eap+1;
      0x1.0429baa8e46ccp+2; 0x1.056902b2e58e7p+2; 0x1.05f7be620107cp+2;
      0x1.0710c047ffc05p+2; 0x1.09794bf163431p+2; 0x1.09de627c53b64p+2;
      0x1.10d2b8011e3f2p+2; 0x1.119c39162eaep+2; 0x1.180a8d94e6ecep+2;
      0x1.1970a718f2c44p+2; 0x1.1c2d9c23ffd9ap+2; 0x1.1fc5ce11e12acp+2;
      0x1.2bbc34eb8c2d3p+2; 0x1.3ced5f5f276ebp+2; 0x1.4e05e49a2a16ap+2;
      0x1.542cd76c217b4p+2; 0x1.553911d7e02dcp+2; 0x1.75aee548e96e8p+2;
      0x1.9c6d211a3c8b6p+2; 0x1.a55a45b6daba8p+2; 0x1.b8c0bae65331fp+2;
      0x1.e3aaf1afe5706p+2; 0x1.e64850a1ce411p+2; 0x1.0968f2fc2b173p+3;
      0x1.0b98b0d78a405p+3; 0x1.0d6f9af78c2f2p+3; 0x1.116c00a08b458p+3;
      0x1.1505acc3448b2p+3; 0x1.1fe301f421398p+3; 0x1.2e64f14a0b388p+3;
      0x1.413541b9078b8p+3; 0x1.4cdc8012f66ep+3; 0x1.936449fb77206p+3;
      0x1.bf733b411d614p+3; 0x1.c15f59b12bcc5p+3; 0x1.dcd43d81a23dcp+3;
      0x1.06bfb3948e61ap+4; 0x1.09c4ac94fb3acp+4; 0x1.0b29335b01716p+4;
      0x1.5925b286353fdp+4;
    ]
    latencies

(* A storm hop draws its candidates one per try
   ([Overlay.draw_candidate] over a copy of the level), revealing a
   uniformly random ordering of the level one try at a time. *)

(* One lookup at a time through a storm over a 100-peer overlay with up
   to 8 references per level and a third of the peers detached from a
   lossless net; [check overlay key events] reads each lookup's events,
   oldest first. *)
let sequential_storm cfg ~seed check =
  let rng = Rng.create ~seed in
  let keys = Distribution.generate rng Distribution.Uniform ~n:1500 in
  let overlay = Builder.index rng ~peers:100 ~keys ~d_max:50 ~n_min:5 ~refs_per_level:8 in
  let sim = Sim.create () in
  let net =
    Net.create sim (Rng.create ~seed:(seed + 1)) ~nodes:(Overlay.size overlay)
      ~latency:(Latency.Fixed 0.05) ~loss:0. ~bucket:60.
  in
  let tel = Telemetry.create () in
  let ring = Ring.create ~capacity:4096 in
  Telemetry.add_sink tel (Sink.ring ring);
  let storm = Storm.create ~telemetry:tel sim (Rng.create ~seed:(seed + 2)) overlay net cfg in
  let drng = Rng.create ~seed:(seed + 3) in
  for i = 0 to Net.nodes net - 1 do
    if Rng.float drng < 0.35 then Net.set_online net i false
  done;
  for _ = 1 to 80 do
    let origin = Rng.int drng (Net.nodes net) in
    let key = keys.(Rng.int drng (Array.length keys)) in
    if Net.online net origin then begin
      Ring.clear ring;
      Storm.issue storm ~origin ~key;
      Sim.run sim;
      check overlay key (List.map (fun e -> e.Event.kind) (Ring.to_list ring))
    end
  done;
  Storm.stats storm

let hop_level overlay id key =
  let n = Overlay.node overlay id in
  match Overlay.divergence_level n.Node.path key with
  | Some level -> (n, level)
  | None -> Alcotest.fail "a hop left the responsible peer"

let test_storm_candidate_order () =
  (* Peer 0 refers to peers 1-40 at level 0, 1-7 at level 1 and 8 at
     level 2. *)
  let o = Overlay.create (Rng.create ~seed:1) ~n:41 in
  let src = Overlay.node o 0 in
  for i = 1 to 40 do
    Node.add_ref src ~level:0 i
  done;
  for i = 1 to 7 do
    Node.add_ref src ~level:1 i
  done;
  Node.add_ref src ~level:2 8;
  let rng = Rng.create ~seed:5 in
  let buf = Array.make 40 0 in
  (* Drained, the draws are a permutation of the level, left in draw
     order in the buffer; the last candidate costs no draw. *)
  for _ = 1 to 50 do
    for level = 0 to 2 do
      let len = Node.refs_blit src ~level buf in
      let drawn =
        Array.init len (fun d ->
            if d < len - 1 then Overlay.draw_candidate rng buf ~drawn:d ~len
            else begin
              let before = Rng.copy rng in
              let id = Overlay.draw_candidate rng buf ~drawn:d ~len in
              checkb "last candidate draws nothing" true (Rng.bits64 before = Rng.bits64 rng);
              id
            end)
      in
      Alcotest.(check (array int)) "buffer holds the draws in order" drawn (Array.sub buf 0 len);
      Alcotest.(check (list int))
        "drained level = its references" (Node.refs_at src ~level)
        (List.sort compare (Array.to_list drawn))
    done
  done;
  (* The first candidate is uniform: chi-square over 40,000 draws at 40
     references, below 72.05 (39 degrees of freedom, p = 0.001). *)
  let draws = 40_000 in
  let counts = Array.make 41 0 in
  for _ = 1 to draws do
    let len = Node.refs_blit src ~level:0 buf in
    let id = Overlay.draw_candidate rng buf ~drawn:0 ~len in
    counts.(id) <- counts.(id) + 1
  done;
  let expected = float_of_int draws /. 40. in
  let chi2 = ref 0. in
  for id = 1 to 40 do
    let d = float_of_int counts.(id) -. expected in
    chi2 := !chi2 +. (d *. d /. expected)
  done;
  checkb (Printf.sprintf "first candidate uniform (chi-square %.1f)" !chi2) true (!chi2 < 72.05);
  (* No hedges, retries or evictions, so a hop keeps one snapshot: it
     tries each reference at most once, and a dead end has tried them
     all. *)
  let longest = ref 0 and dead_ends = ref 0 in
  let cfg = { Storm.default_config with req_timeout = 1.; max_retries = 0 } in
  ignore
    (sequential_storm cfg ~seed:31 (fun overlay key events ->
         let tried = Hashtbl.create 16 and cur = ref (-1) in
         List.iter
           (function
             | Event.Query_issue { origin; _ } -> cur := origin
             | Event.Timeout { src; dst; _ } ->
               checki "timeout on the hop's peer" !cur src;
               checkb "a hop tries a reference once" false (Hashtbl.mem tried dst);
               Hashtbl.replace tried dst ();
               longest := max !longest (Hashtbl.length tried)
             | Event.Query_hop { dst; _ } ->
               checkb "the answer came from an untried reference" false (Hashtbl.mem tried dst);
               Hashtbl.reset tried;
               cur := dst
             | Event.Query_complete { success = false; _ } ->
               incr dead_ends;
               let n, level = hop_level overlay !cur key in
               checki "a dead end tried its whole level" (Node.refs_count n ~level)
                 (Hashtbl.length tried)
             | _ -> ())
           events));
  checkb "some hop tried several references" true (!longest >= 3);
  checkb "some lookup hit a dead end" true (!dead_ends > 0);
  (* With hedges and breakers that open on one timeout and stay open, a
     hedge's backup is a reference of the hop's level that the hop has
     not tried and whose circuit never opened. *)
  let hedges = ref 0 and opened = Hashtbl.create 64 in
  let cfg =
    {
      Storm.default_config with
      req_timeout = 1.;
      max_retries = 1;
      hedge_after = Some 0.4;
      breaker = Some { Breaker.failures = 1; cooldown = 1e6 };
    }
  in
  let s =
    sequential_storm cfg ~seed:32 (fun overlay key events ->
        let tried = Hashtbl.create 16 in
        List.iter
          (function
            | Event.Timeout { dst; _ } -> Hashtbl.replace tried dst ()
            | Event.Query_hop _ -> Hashtbl.reset tried
            | Event.Breaker_open { origin; target; _ } -> Hashtbl.replace opened (origin, target) ()
            | Event.Hedge_launch { origin; primary; backup; _ } ->
              incr hedges;
              let n, level = hop_level overlay origin key in
              checkb "backup at the hop's level" true (Node.has_ref n ~level backup);
              checkb "backup is not the primary" true (backup <> primary);
              checkb "backup untried" false (Hashtbl.mem tried backup);
              checkb "backup admitted" false (Hashtbl.mem opened (origin, backup));
              Hashtbl.replace tried primary ();
              Hashtbl.replace tried backup ()
            | _ -> ())
          events)
  in
  checki "every hedge checked" s.Storm.hedges !hedges;
  checkb "hedges launched" true (!hedges > 0);
  checkb "open circuits skipped" true (s.Storm.breaker_skips > 0)

(* A hedge race's loser gets no verdict.  When the loser was a
   breaker's half-open probe, resolving the hop must release the probe;
   otherwise the circuit stays half-open and refuses everything for
   good. *)
let test_storm_no_circuit_stuck_half_open () =
  let storm = hedged_storm () in
  checki "nothing in flight" 0 (Storm.in_flight storm);
  match Storm.breaker storm with
  | None -> Alcotest.fail "breakers are configured"
  | Some br -> checki "no circuit half-open at quiescence" 0 (Breaker.half_open br)

(* [Storm.create] on [cfg], for its validation. *)
let storm_create cfg () =
  let sim = Sim.create () in
  let overlay, _keys = build 28 in
  let net =
    Net.create sim (Rng.create ~seed:1) ~nodes:(Overlay.size overlay)
      ~latency:(Latency.Fixed 0.05) ~loss:0. ~bucket:60.
  in
  ignore (Storm.create sim (Rng.create ~seed:2) overlay net cfg)

let test_storm_rejects_nan () =
  let d = Storm.default_config in
  Alcotest.check_raises "NaN req_timeout"
    (Invalid_argument "Storm.create: req_timeout must be positive")
    (storm_create { d with req_timeout = Float.nan });
  Alcotest.check_raises "NaN hedge_after"
    (Invalid_argument "Storm.create: hedge_after must be positive")
    (storm_create { d with hedge_after = Some Float.nan })

let test_storm_rejects_bad_jitter_evict () =
  let d = Storm.default_config in
  let bad_jitter = Invalid_argument "Storm.create: jitter outside [0, 1)" in
  Alcotest.check_raises "negative jitter" bad_jitter (storm_create { d with jitter = -0.1 });
  Alcotest.check_raises "jitter 1" bad_jitter (storm_create { d with jitter = 1. });
  Alcotest.check_raises "NaN jitter" bad_jitter (storm_create { d with jitter = Float.nan });
  Alcotest.check_raises "evict_after 0"
    (Invalid_argument "Storm.create: evict_after must be >= 1")
    (storm_create { d with evict_after = Some 0 })

let test_lookup_batch_nobody_online () =
  (* Satellite: a batch against a fully-killed overlay returns a partial
     result (zero issued) instead of hanging in rejection sampling. *)
  let overlay, keys = build 26 in
  for i = 0 to Overlay.size overlay - 1 do
    Node.set_online (Overlay.node overlay i) false
  done;
  let rng = Rng.create ~seed:68 in
  let s = Query.lookup_batch rng overlay ~keys ~count:100 in
  checki "nothing issued" 0 s.Query.issued;
  checki "nothing routed" 0 s.Query.routed;
  checki "nothing found" 0 s.Query.found;
  Alcotest.check (Alcotest.float 0.) "mean hops defined" 0. s.Query.mean_hops;
  (* And the call consumed no RNG draws, so downstream seeding is
     unaffected by the early exit. *)
  let r1 = Rng.create ~seed:69 and r2 = Rng.create ~seed:69 in
  ignore (Query.lookup_batch r1 overlay ~keys ~count:100);
  checki "no draws consumed" (Rng.int r2 1000000) (Rng.int r1 1000000)

let test_range_batch_nobody_online () =
  (* Satellite: like [test_lookup_batch_nobody_online], a range batch
     against a fully-killed overlay must report zero *issued* queries —
     the old code reported [ranges = count] — and burn no RNG draws. *)
  let overlay, _ = build 27 in
  for i = 0 to Overlay.size overlay - 1 do
    Node.set_online (Overlay.node overlay i) false
  done;
  let rng = Rng.create ~seed:70 in
  let s = Query.range_batch rng overlay ~count:50 ~width:0.1 in
  checki "nothing issued" 0 s.Query.ranges;
  Alcotest.check (Alcotest.float 0.) "mean partitions defined" 0.
    s.Query.mean_partitions;
  let r1 = Rng.create ~seed:71 and r2 = Rng.create ~seed:71 in
  ignore (Query.range_batch r1 overlay ~count:50 ~width:0.1);
  checki "no draws consumed" (Rng.int r2 1000000) (Rng.int r1 1000000)

let test_conjunctive_uneven_postings () =
  (* Regression for the decorated length sort: posting lists of very
     different lengths must still intersect correctly (the shortest
     list leads the k-way merge). *)
  let overlay, _ = build 8 in
  let k1 = Key.of_float 0.15 and k2 = Key.of_float 0.65 in
  for d = 0 to 29 do
    ignore (Overlay.insert overlay ~from:0 k1 (Printf.sprintf "doc-%02d" d))
  done;
  ignore (Overlay.insert overlay ~from:0 k2 "doc-07");
  ignore (Overlay.insert overlay ~from:0 k2 "doc-23");
  ignore (Overlay.insert overlay ~from:0 k2 "zz-not-under-k1");
  let r = Query.conjunctive overlay ~from:3 [ k1; k2 ] in
  Alcotest.check (Alcotest.list Alcotest.string) "uneven intersection"
    [ "doc-07"; "doc-23" ] r.Query.matches

(* --- Engine + Qcache: the caching query engine --------------------------- *)

let test_engine_cacheless_matches_search () =
  (* With no cache the engine must be Overlay.search exactly: same
     outcome, same hops, same RNG draws.  Two identically-seeded
     overlays keep the internal draw streams aligned. *)
  let overlay_s, keys = build 30 in
  let overlay_e, _ = build 30 in
  for i = 0 to 199 do
    let k = keys.(i mod Array.length keys) in
    let from = i mod Overlay.size overlay_s in
    let s = Overlay.search overlay_s ~from k in
    let e = Engine.lookup overlay_e ~from k in
    checkb "same responsible" true (s.Overlay.responsible = e.Engine.responsible);
    checki "same hops" s.Overlay.hops e.Engine.hops;
    checkb "same presence" true (s.Overlay.key_present = e.Engine.key_present)
  done

(* The walk's edges: two peers of path "0" whose only level-0 reference
   is each other, so a key of the "1" half cycles between them until the
   hop budget runs out.  Every arm must stop on its budget, not on a
   dead end, and a failed cached walk must teach no cache anything. *)
let test_walk_budget_exhausted () =
  let cycling () =
    let overlay = Overlay.create (Rng.create ~seed:5) ~n:2 in
    let a = Overlay.node overlay 0 and b = Overlay.node overlay 1 in
    Node.set_path a (Path.of_string "0");
    Node.set_path b (Path.of_string "0");
    Node.add_ref a ~level:0 1;
    Node.add_ref b ~level:0 0;
    overlay
  in
  let key = Key.of_float 0.9 in
  let s = Overlay.search (cycling ()) ~from:0 key in
  checkb "search fails" true (s.Overlay.responsible = None);
  checki "search spends its budget" (Overlay.max_hops + 1) s.Overlay.hops;
  checkb "search: no dead end" true (s.Overlay.dead_end = None);
  let uncached = Engine.lookup (cycling ()) ~from:0 key in
  checkb "uncached lookup fails" true (uncached.Engine.responsible = None);
  checki "uncached lookup spends its budget" (Overlay.max_hops + 1) uncached.Engine.hops;
  checkb "uncached lookup: no dead end" true (uncached.Engine.dead_end = None);
  let overlay = cycling () in
  let cache = Qcache.create overlay in
  let cached = Engine.lookup ~cache overlay ~from:0 key in
  checkb "cached lookup fails" true (cached.Engine.responsible = None);
  checki "cached lookup spends its budget" (Overlay.max_hops + 1) cached.Engine.hops;
  checkb "cached lookup: no dead end" true (cached.Engine.dead_end = None);
  let st = Qcache.stats cache in
  checki "cached walk learns nothing" 0 (st.Qcache.route_entries + st.Qcache.result_entries);
  checki "every visited peer probed and missed" (Overlay.max_hops + 1) st.Qcache.misses;
  (* Construction's hand-over keeps a key where its referral budget runs
     out: 5 forwards from peer 0 end at peer 1, and the key is counted
     as moved once per peer it reached, the injection peer included. *)
  let overlay = cycling () in
  let module C = Pgrid_construction.Engine in
  let config =
    { C.n_min = 5; d_max = 50; max_fruitless = 2; refer_hops = 5; mode = C.Theory }
  in
  let eng = C.create (Rng.create ~seed:6) config overlay C.no_hooks in
  C.deliver eng ~at:0 key [ "v" ];
  checkb "kept where the budget ran out" true
    (Node.has_key (Overlay.node overlay 1) key
    && not (Node.has_key (Overlay.node overlay 0) key));
  checki "one key move per peer reached" (config.C.refer_hops + 1)
    (C.counters eng).C.keys_moved

(* Route a key once so we know a genuine (origin, target) pair with
   origin <> target, then the cache tests can plant entries by hand. *)
let planted_pair overlay keys =
  let rec hunt i =
    if i >= Array.length keys then Alcotest.fail "no multi-hop lookup found"
    else begin
      let k = keys.(i) in
      let r = Overlay.search overlay ~from:0 k in
      match r.Overlay.responsible with
      | Some t when t <> 0 -> (k, t)
      | _ -> hunt (i + 1)
    end
  in
  hunt 0

let test_qcache_lru_eviction () =
  let overlay, keys = build 31 in
  let cache = Qcache.create ~route_cap:2 ~result_cap:2 overlay in
  for i = 0 to 19 do
    let k = keys.(i) in
    match (Overlay.search overlay ~from:0 k).Overlay.responsible with
    | Some t when t <> 0 ->
      Qcache.learn cache ~at:0 ~key:k ~target:t ~present:true ~payloads:[]
    | _ -> ()
  done;
  let s = Qcache.stats cache in
  checkb "route entries bounded by cap" true (s.Qcache.route_entries <= 2);
  checkb "result entries bounded by cap" true (s.Qcache.result_entries <= 2);
  checkb "evictions happened" true (s.Qcache.evictions > 0)

(* Each of 4096 peers caches the same key, with a payload that names the
   peer, and a route to the same path: some 8k entries outgrow the
   cache's first storage several times over, and an entry found under
   the wrong peer shows in the answer. *)
let test_qcache_many_entries () =
  let peers = 4096 in
  let overlay = Overlay.create (Rng.create ~seed:1) ~n:peers in
  let cache = Qcache.create ~route_cap:1 ~result_cap:1 overlay in
  let key = Key.of_float 0.3 and owner at = (at + 1) mod peers in
  let doc at = [ string_of_int at ] in
  let learn_all () =
    for at = 0 to peers - 1 do
      Qcache.learn cache ~at ~key ~target:(owner at) ~present:true ~payloads:(doc at)
    done
  in
  let check_all () =
    for at = 0 to peers - 1 do
      match Qcache.probe_results cache ~at key with
      | Qcache.Hit_result { target; present = true; payloads }
        when target = owner at && payloads = doc at ->
        ()
      | _ -> Alcotest.failf "peer %d: wrong outcome" at
    done
  in
  learn_all ();
  check_all ();
  let s = Qcache.stats cache in
  checki "route entries" peers s.Qcache.route_entries;
  checki "result entries" peers s.Qcache.result_entries;
  checki "no evictions" 0 s.Qcache.evictions;
  for at = 0 to peers - 1 do
    match Qcache.probe cache ~at (Key.of_float 0.7) with
    | Qcache.Hit_route target when target = owner at -> ()
    | _ -> Alcotest.failf "peer %d: expected its route" at
  done;
  Qcache.clear cache;
  let s = Qcache.stats cache in
  checki "no entries after clear" 0 (s.Qcache.route_entries + s.Qcache.result_entries);
  (match Qcache.probe cache ~at:1 key with
  | Qcache.Miss -> ()
  | _ -> Alcotest.fail "expected a miss after clear");
  learn_all ();
  check_all ()

let test_qcache_invalidation_kinds () =
  let overlay, keys = build 32 in
  let cache = Qcache.create overlay in
  let k, t = planted_pair overlay keys in
  let plant () =
    Qcache.learn cache ~at:0 ~key:k ~target:t ~present:true ~payloads:[]
  in
  let probe () = Qcache.probe cache ~at:0 k in
  plant ();
  (match probe () with
  | Qcache.Hit_result { target; present; _ } ->
    checki "result hit names the planted target" t target;
    checkb "present as planted" true present
  | _ -> Alcotest.fail "expected a result hit after learn");
  (* Peer_changed retires every entry pointing at the peer. *)
  Qcache.invalidate cache (Overlay.Peer_changed t);
  (match probe () with
  | Qcache.Miss -> ()
  | _ -> Alcotest.fail "expected a miss after Peer_changed");
  (* Key_written retires the key's result entry but spares the route. *)
  plant ();
  Qcache.invalidate cache (Overlay.Key_written k);
  (match probe () with
  | Qcache.Hit_route target -> checki "route survives a key write" t target
  | _ -> Alcotest.fail "expected a route hit after Key_written");
  (* Flush retires everything. *)
  plant ();
  Qcache.invalidate cache Overlay.Flush;
  (match probe () with
  | Qcache.Miss -> ()
  | _ -> Alcotest.fail "expected a miss after Flush");
  checkb "invalidations counted" true ((Qcache.stats cache).Qcache.invalidations > 0)

(* The arena's footprint: some 10k entries on a 64-peer overlay must
   cost at most 6 words a slot (five packed ints and the payload word)
   plus the buckets, the arena being whole 2048-slot chunks and the
   buckets the smallest power of two that covers it. *)
let test_qcache_slot_footprint () =
  let peers = 64 in
  let overlay = Overlay.create (Rng.create ~seed:3) ~n:peers in
  let cache = Qcache.create ~result_cap:1024 overlay in
  let before = Obj.reachable_words (Obj.repr cache) in
  for i = 0 to 9_999 do
    let at = i mod peers in
    Qcache.learn cache ~at ~key:(Key.of_int (i * 7919)) ~target:((at + 1) mod peers)
      ~present:true ~payloads:[]
  done;
  let s = Qcache.stats cache in
  let entries = s.Qcache.route_entries + s.Qcache.result_entries in
  checki "entries" (10_000 + peers) entries;
  let chunk = 2048 in
  let slots = (entries + chunk) / chunk * chunk in
  let rec cover b = if b >= slots then b else cover (2 * b) in
  let grown = Obj.reachable_words (Obj.repr cache) - before in
  let bound = (6 * slots) + (cover chunk - chunk) + 64 in
  if grown > bound then
    Alcotest.failf "cache grew by %d words for %d slots; at most %d allowed" grown slots bound

(* Stamps order an invalidation against the entries around it: an entry
   learned after its target was invalidated is live, and one learned
   before is retired, which reads as a miss, not as a stale probe. *)
let test_qcache_invalidation_boundary () =
  let overlay, keys = build 37 in
  let cache = Qcache.create overlay in
  let k, t = planted_pair overlay keys in
  let plant () = Qcache.learn cache ~at:0 ~key:k ~target:t ~present:true ~payloads:[] in
  Qcache.invalidate cache (Overlay.Peer_changed t);
  plant ();
  (match Qcache.probe cache ~at:0 k with
  | Qcache.Hit_result { target; _ } -> checki "learned after the invalidation" t target
  | _ -> Alcotest.fail "expected a hit for an entry learned after the invalidation");
  plant ();
  Qcache.invalidate cache (Overlay.Peer_changed t);
  (match Qcache.probe cache ~at:0 k with
  | Qcache.Miss -> ()
  | _ -> Alcotest.fail "expected a miss for an entry learned before the invalidation");
  checki "retired, not stale" 0 (Qcache.stats cache).Qcache.stale

(* Peer ids are packed into 30 bits: a larger one is refused before the
   cache grows a peer array to fit it. *)
let test_qcache_peer_id_limit () =
  let overlay = Overlay.create (Rng.create ~seed:4) ~n:4 in
  let cache = Qcache.create overlay in
  let before = Obj.reachable_words (Obj.repr cache) in
  let learn ~at ~target =
    Qcache.learn cache ~at ~key:(Key.of_float 0.5) ~target ~present:true ~payloads:[]
  in
  let raises ~at ~target =
    match learn ~at ~target with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  let words = Gc.minor_words () in
  let refused = raises ~at:(1 lsl 30) ~target:0 in
  let allocated = Gc.minor_words () -. words in
  checkb "at = 2^30 refused" true refused;
  checkb "target = 2^30 refused" true (raises ~at:0 ~target:(1 lsl 30));
  checkb "refused without allocating" true (allocated < 64.);
  checki "cache unchanged" before (Obj.reachable_words (Obj.repr cache))

let test_qcache_observe_events () =
  let overlay, keys = build 33 in
  let cache = Qcache.create overlay in
  let k, t = planted_pair overlay keys in
  let plant () =
    Qcache.learn cache ~at:0 ~key:k ~target:t ~present:true ~payloads:[]
  in
  let expect_miss label =
    match Qcache.probe cache ~at:0 k with
    | Qcache.Miss -> ()
    | _ -> Alcotest.fail ("expected a miss after " ^ label)
  in
  plant ();
  Qcache.observe cache (Event.Migrate { peer = t; level = 0; keys = 1 });
  expect_miss "Migrate";
  plant ();
  Qcache.observe cache (Event.Ref_evict { peer = 0; level = 0; target = t });
  expect_miss "Ref_evict";
  plant ();
  Qcache.observe cache
    (Event.Balance_split { path = "0"; level = 0; zeros = 1; ones = 1 });
  expect_miss "Balance_split";
  plant ();
  Qcache.observe cache (Event.Retract { path = "0"; members = 2; merged_keys = 0 });
  expect_miss "Retract";
  plant ();
  Qcache.observe cache (Event.Partition_heal { fault = "cut"; cut = 1 });
  expect_miss "Partition_heal";
  (* Unrelated events leave entries alone. *)
  plant ();
  Qcache.observe cache (Event.Query_issue { qid = 1; origin = 0 });
  (match Qcache.probe cache ~at:0 k with
  | Qcache.Hit_result _ -> ()
  | _ -> Alcotest.fail "unrelated event must not invalidate")

let test_engine_stale_fallback () =
  (* A cached target that went offline must cost a stale fallback, never
     return a wrong responsible peer. *)
  let overlay, keys = build 34 in
  let cache = Qcache.create overlay in
  let k, t = planted_pair overlay keys in
  Qcache.learn cache ~at:0 ~key:k ~target:t ~present:true ~payloads:[];
  Node.set_online (Overlay.node overlay t) false;
  let r = Engine.lookup ~cache overlay ~from:0 k in
  (match r.Engine.responsible with
  | None -> Alcotest.fail "routing must still resolve past a stale entry"
  | Some id ->
    let n = Overlay.node overlay id in
    checkb "returned peer is online" true n.Node.online;
    checkb "returned peer is responsible" true (Node.responsible_for n k));
  checkb "stale probe recorded" true (r.Engine.stale >= 1);
  checkb "stale entry evicted and counted" true
    ((Qcache.stats cache).Qcache.stale >= 1)

let test_engine_lookup_many () =
  let overlay, keys = build 35 in
  let group = Array.to_list (Array.sub keys 0 48) in
  let b = Engine.lookup_many overlay ~from:0 group in
  checki "every key resolved on a healthy overlay" 0 b.Engine.unresolved;
  checkb "shared walk beats naive per-key walks" true
    (b.Engine.messages <= b.Engine.naive_messages);
  Array.iter
    (fun item ->
      match item.Engine.bresponsible with
      | None -> Alcotest.fail "unresolved item"
      | Some t ->
        checkb "item target is responsible" true
          (Node.responsible_for (Overlay.node overlay t) item.Engine.bkey))
    b.Engine.items

let test_lookup_many_probes_results_only () =
  (* A batch can only be answered by the result cache, so it must not
     charge route hits or bump route entries.  Plant a route entry with
     no live result entry next to it, then run a batch over its key. *)
  let overlay, keys = build 36 in
  let cache = Qcache.create overlay in
  let k, t = planted_pair overlay keys in
  Qcache.learn cache ~at:0 ~key:k ~target:t ~present:true ~payloads:[];
  Qcache.invalidate cache (Overlay.Key_written k);
  let b = Engine.lookup_many ~cache overlay ~from:0 [ k ] in
  checki "resolved" 0 b.Engine.unresolved;
  checki "no route hits charged" 0 (Qcache.stats cache).Qcache.route_hits

(* --- Qcache against a naive model ---------------------------------------- *)

(* The reference the cache must match decision for decision: per-peer
   assoc lists kept most recent first, a linear longest-prefix scan, and
   the same generation rules.  Its probe answers are [Qcache.probe]
   values and its [stats] a [Qcache.stats], so the two compare with
   [=]. *)
module Model = struct
  type route = { path : Path.t; rtarget : int; rgen : int; repoch : int }

  type result = {
    key : Key.t;
    xtarget : int;
    present : bool;
    payloads : string list;
    xgen : int;
    xwgen : int;
    xepoch : int;
  }

  type t = {
    overlay : Overlay.t;
    route_cap : int;
    result_cap : int;
    mutable routes : route list array;
    mutable results : result list array;
    mutable gen : int array;
    mutable wgen : (Key.t * int) list;
    mutable epoch : int;
    mutable route_hits : int;
    mutable result_hits : int;
    mutable misses : int;
    mutable stale : int;
    mutable invalidations : int;
    mutable evictions : int;
  }

  let create overlay ~route_cap ~result_cap =
    let n = Overlay.size overlay in
    {
      overlay;
      route_cap;
      result_cap;
      routes = Array.make n [];
      results = Array.make n [];
      gen = Array.make n 0;
      wgen = [];
      epoch = 0;
      route_hits = 0;
      result_hits = 0;
      misses = 0;
      stale = 0;
      invalidations = 0;
      evictions = 0;
    }

  (* Mirrors [Overlay.add_peer]: one more peer, with no entries. *)
  let add_peer m =
    m.routes <- Array.append m.routes [| [] |];
    m.results <- Array.append m.results [| [] |];
    m.gen <- Array.append m.gen [| 0 |]

  let wgen m k = Option.value ~default:0 (List.assoc_opt k m.wgen)

  let valid m target key =
    let n = Overlay.node m.overlay target in
    n.Node.online && Node.responsible_for n key

  (* Most recent first; a fresh entry beyond the cap evicts the last. *)
  let file entries e ~same ~cap ~evicted =
    let others = List.filter (fun x -> not (same x)) entries in
    let fresh = List.length others = List.length entries in
    let all = e :: others in
    if fresh && List.length all > cap then begin
      evicted ();
      List.filteri (fun i _ -> i < cap) all
    end
    else all

  let learn m ~at ~key ~target ~present ~payloads =
    if at <> target then begin
      let path = (Overlay.node m.overlay target).Node.path in
      let evicted () = m.evictions <- m.evictions + 1 in
      m.routes.(at) <-
        file m.routes.(at)
          { path; rtarget = target; rgen = m.gen.(target); repoch = m.epoch }
          ~same:(fun r -> Path.equal r.path path)
          ~cap:m.route_cap ~evicted;
      m.results.(at) <-
        file m.results.(at)
          {
            key;
            xtarget = target;
            present;
            payloads;
            xgen = m.gen.(target);
            xwgen = wgen m key;
            xepoch = m.epoch;
          }
          ~same:(fun x -> Key.equal x.key key)
          ~cap:m.result_cap ~evicted
    end

  (* The result entry's answer; a hit or a stale probe is charged, a
     miss is not. *)
  let from_results m ~at key =
    let drop_result x = m.results.(at) <- List.filter (fun y -> y != x) m.results.(at) in
    match List.find_opt (fun x -> Key.equal x.key key) m.results.(at) with
    | None -> Qcache.Miss
    | Some x ->
      if x.xepoch <> m.epoch || x.xgen <> m.gen.(x.xtarget) || x.xwgen <> wgen m key
      then begin
        drop_result x;
        Qcache.Miss
      end
      else if valid m x.xtarget key then begin
        m.results.(at) <- x :: List.filter (fun y -> y != x) m.results.(at);
        m.result_hits <- m.result_hits + 1;
        Qcache.Hit_result { target = x.xtarget; present = x.present; payloads = x.payloads }
      end
      else begin
        drop_result x;
        m.stale <- m.stale + 1;
        Qcache.Stale x.xtarget
      end

  let probe_results m ~at key =
    match from_results m ~at key with
    | Qcache.Miss ->
      m.misses <- m.misses + 1;
      Qcache.Miss
    | outcome -> outcome

  let probe m ~at key =
    let drop_route r = m.routes.(at) <- List.filter (fun y -> y != r) m.routes.(at) in
    let rec scan = function
      | [] ->
        m.misses <- m.misses + 1;
        Qcache.Miss
      | r :: rest ->
        if r.repoch <> m.epoch || r.rgen <> m.gen.(r.rtarget) then begin
          drop_route r;
          scan rest
        end
        else if valid m r.rtarget key then begin
          m.routes.(at) <- r :: List.filter (fun y -> y != r) m.routes.(at);
          m.route_hits <- m.route_hits + 1;
          Qcache.Hit_route r.rtarget
        end
        else begin
          drop_route r;
          m.stale <- m.stale + 1;
          Qcache.Stale r.rtarget
        end
    in
    match from_results m ~at key with
    | Qcache.Miss ->
      m.routes.(at)
      |> List.filter (fun r -> Path.matches_key r.path key)
      |> List.stable_sort (fun a b -> compare (Path.length b.path) (Path.length a.path))
      |> scan
    | outcome -> outcome

  let invalidate m = function
    | Overlay.Peer_changed id ->
      m.gen.(id) <- m.gen.(id) + 1;
      m.invalidations <- m.invalidations + 1
    | Overlay.Key_written k ->
      m.wgen <- (k, wgen m k + 1) :: List.remove_assoc k m.wgen;
      m.invalidations <- m.invalidations + 1
    | Overlay.Flush ->
      m.epoch <- m.epoch + 1;
      m.wgen <- [];
      m.invalidations <- m.invalidations + 1

  let clear m =
    Array.fill m.routes 0 (Array.length m.routes) [];
    Array.fill m.results 0 (Array.length m.results) []

  let stats m =
    let total a = Array.fold_left (fun acc l -> acc + List.length l) 0 a in
    {
      Qcache.route_hits = m.route_hits;
      result_hits = m.result_hits;
      misses = m.misses;
      stale = m.stale;
      invalidations = m.invalidations;
      evictions = m.evictions;
      route_entries = total m.routes;
      result_entries = total m.results;
    }
end

type cache_op =
  | Learn of int * int * int * bool  (** at, key index, target, present *)
  | Probe of int * int  (** at, key index *)
  | Probe_results of int * int  (** at, key index *)
  | Changed of int
  | Written of int
  | Flush_feed  (** [Overlay.Flush] through [invalidate] *)
  | Flush
  | Clear
  | Toggle of int  (** a peer goes offline or back online *)
  | Repath of int * string  (** a peer's path changes, unannounced *)
  | Observe of int * int  (** index into [observed], peer *)
  | Add_peer

(* A peer operand is taken modulo the overlay's current size, so
   generated operations can name peers that [Add_peer] adds later. *)
let observed =
  [|
    (fun p -> Event.Migrate { peer = p; level = 0; keys = 1 });
    (fun p -> Event.Ref_evict { peer = 0; level = 0; target = p });
    (fun _ -> Event.Balance_split { path = ""; level = 0; zeros = 1; ones = 1 });
    (fun _ -> Event.Retract { path = "0"; members = 1; merged_keys = 0 });
    (fun _ -> Event.Partition_heal { fault = "cut"; cut = 1 });
    (fun p -> Event.Cache_miss { peer = p });
  |]

(* The overlay change each of [observed] stands for, if any. *)
let observed_change i p =
  match i with
  | 0 | 1 -> Some (Overlay.Peer_changed p)
  | 2 | 3 | 4 -> Some Overlay.Flush
  | _ -> None

let show_cache_op = function
  | Learn (at, k, t, p) -> Printf.sprintf "learn(%d,k%d,->%d,%b)" at k t p
  | Probe (at, k) -> Printf.sprintf "probe(%d,k%d)" at k
  | Probe_results (at, k) -> Printf.sprintf "probe_results(%d,k%d)" at k
  | Changed p -> Printf.sprintf "changed(%d)" p
  | Written k -> Printf.sprintf "written(k%d)" k
  | Flush_feed -> "flush-feed"
  | Flush -> "flush"
  | Clear -> "clear"
  | Toggle p -> Printf.sprintf "toggle(%d)" p
  | Repath (p, s) -> Printf.sprintf "repath(%d,%S)" p s
  | Observe (i, p) -> Printf.sprintf "observe(%d,%d)" i p
  | Add_peer -> "add_peer"

(* Six peers with paths of up to two bits and eight keys spread over the
   key space, so routes share prefixes, and validation fails often enough
   to exercise [Stale].  Only peers 0 and 1 cache, so their small caches
   fill and evict, which is where recency order shows. *)
let model_peers = 6

let model_keys =
  Array.map Key.of_float [| 0.03; 0.1; 0.2; 0.33; 0.5; 0.6; 0.77; 0.9 |]

let gen_bits = QCheck.Gen.(string_size ~gen:(oneofl [ '0'; '1' ]) (int_bound 2))

let gen_cache_op =
  let open QCheck.Gen in
  let peer = int_bound (model_peers - 1) and key = int_bound (Array.length model_keys - 1) in
  let at = int_bound 1 in
  frequency
    [
      (4, map3 (fun at k (t, p) -> Learn (at, k, t, p)) at key (pair peer bool));
      (5, map2 (fun at k -> Probe (at, k)) at key);
      (1, map (fun p -> Changed p) peer);
      (1, map (fun k -> Written k) key);
      (1, return Flush_feed);
      (1, return Flush);
      (1, return Clear);
      (1, map (fun p -> Toggle p) peer);
      (1, map2 (fun p s -> Repath (p, s)) peer gen_bits);
    ]

(* Every operation, at any peer, the overlay growing past the size the
   cache was created at. *)
let gen_cache_op_growing =
  let open QCheck.Gen in
  let peer = int_bound 9 and key = int_bound (Array.length model_keys - 1) in
  let at = frequency [ (3, int_bound 1); (1, int_bound 9) ] in
  frequency
    [
      (4, map3 (fun at k (t, p) -> Learn (at, k, t, p)) at key (pair peer bool));
      (3, map2 (fun at k -> Probe (at, k)) at key);
      (2, map2 (fun at k -> Probe_results (at, k)) at key);
      (1, map (fun p -> Changed p) peer);
      (1, map (fun k -> Written k) key);
      (1, return Flush_feed);
      (1, return Flush);
      (1, return Clear);
      (1, map (fun p -> Toggle p) peer);
      (1, map2 (fun p s -> Repath (p, s)) peer gen_bits);
      (2, map2 (fun i p -> Observe (i, p)) (int_bound (Array.length observed - 1)) peer);
      (1, return Add_peer);
    ]

(* Runs [ops] on a cache and on the model side by side; after each step
   the probe outcomes and [Qcache.stats] must agree. *)
let cache_agrees_with_model (route_cap, result_cap, paths, ops) =
  let overlay = Overlay.create (Rng.create ~seed:1) ~n:model_peers in
  List.iteri (fun i s -> Node.set_path (Overlay.node overlay i) (Path.of_string s)) paths;
  let cache = Qcache.create ~route_cap ~result_cap overlay in
  let model = Model.create overlay ~route_cap ~result_cap in
  let payloads present = if present then [ "doc" ] else [] in
  let peer p = p mod Overlay.size overlay in
  let change c =
    Qcache.invalidate cache c;
    Model.invalidate model c
  in
  List.for_all
    (fun op ->
      let agree =
        match op with
        | Learn (at, k, target, present) ->
          let key = model_keys.(k) and payloads = payloads present in
          let at = peer at and target = peer target in
          Qcache.learn cache ~at ~key ~target ~present ~payloads;
          Model.learn model ~at ~key ~target ~present ~payloads;
          true
        | Probe (at, k) ->
          let at = peer at in
          Qcache.probe cache ~at model_keys.(k) = Model.probe model ~at model_keys.(k)
        | Probe_results (at, k) ->
          let at = peer at in
          Qcache.probe_results cache ~at model_keys.(k)
          = Model.probe_results model ~at model_keys.(k)
        | Changed p ->
          change (Overlay.Peer_changed (peer p));
          true
        | Written k ->
          change (Overlay.Key_written model_keys.(k));
          true
        | Flush_feed ->
          change Overlay.Flush;
          true
        | Flush ->
          Qcache.flush cache;
          Model.invalidate model Overlay.Flush;
          true
        | Clear ->
          Qcache.clear cache;
          Model.clear model;
          true
        | Toggle p ->
          let n = Overlay.node overlay (peer p) in
          Node.set_online n (not n.Node.online);
          true
        | Repath (p, s) ->
          Node.set_path (Overlay.node overlay (peer p)) (Path.of_string s);
          true
        | Observe (i, p) ->
          let p = peer p in
          Qcache.observe cache (observed.(i) p);
          Option.iter (Model.invalidate model) (observed_change i p);
          true
        | Add_peer ->
          ignore (Overlay.add_peer overlay);
          Model.add_peer model;
          true
      in
      agree && Qcache.stats cache = Model.stats model)
    ops

let model_arbitrary gen_op =
  let cap = QCheck.int_range 1 4 in
  let paths =
    QCheck.make
      ~print:(fun l -> String.concat "," (List.map (Printf.sprintf "%S") l))
      QCheck.Gen.(list_repeat model_peers gen_bits)
  in
  let ops = QCheck.list_of_size QCheck.Gen.(int_bound 120) (QCheck.make ~print:show_cache_op gen_op) in
  QCheck.quad cap cap paths ops

let qcheck_qcache_matches_model =
  QCheck.Test.make ~name:"qcache = assoc-list model" ~count:500
    (model_arbitrary gen_cache_op) cache_agrees_with_model

let qcheck_qcache_matches_model_growing =
  QCheck.Test.make ~name:"qcache = model: every operation, growing overlay" ~count:1000
    ~long_factor:50 (model_arbitrary gen_cache_op_growing) cache_agrees_with_model

(* The tentpole's correctness property: cached lookups agree with plain
   routing on responsibility and key presence before, during and after a
   balance split storm — stale entries may cost hops, never answers. *)
let qcheck_cached_agrees_under_balance_storm =
  QCheck.Test.make ~name:"cached = uncached under balance splits" ~count:10
    QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let keys = Distribution.generate rng Distribution.Uniform ~n:600 in
      let overlay =
        Builder.index rng ~peers:64 ~keys ~d_max:12 ~n_min:2 ~refs_per_level:2
      in
      let cache = Qcache.create overlay in
      let ok = ref true in
      let audit () =
        for _ = 1 to 30 do
          let k = keys.(Rng.int rng (Array.length keys)) in
          let from = Rng.int rng 64 in
          let r = Engine.lookup ~cache overlay ~from k in
          match r.Engine.responsible with
          | None -> ()
          | Some t ->
            let n = Overlay.node overlay t in
            if not (n.Node.online && Node.responsible_for n k) then ok := false;
            if r.Engine.key_present <> Node.has_key n k then ok := false
        done
      in
      audit ();
      let bcfg = Balance.default_config ~d_max:12 ~n_min:1 in
      for i = 1 to 4 do
        (* Skewed inserts overload the low partitions until splits fire. *)
        for j = 1 to 120 do
          let from = Rng.int rng 64 in
          if (Overlay.node overlay from).Node.online then
            ignore
              (Overlay.insert overlay ~from
                 (Key.of_float (Rng.float rng *. 0.05))
                 (Printf.sprintf "storm-%d-%d" i j))
        done;
        ignore (Balance.pass rng overlay bcfg);
        audit ()
      done;
      audit ();
      !ok)

let suite =
  [
    Alcotest.test_case "lookup batch" `Quick test_lookup_batch;
    Alcotest.test_case "hops ~ half path" `Quick test_lookup_hops_law;
    Alcotest.test_case "lookups under failures" `Quick test_lookup_under_failures;
    Alcotest.test_case "lookup invalid args" `Quick test_lookup_invalid;
    Alcotest.test_case "range batch" `Quick test_range_batch;
    Alcotest.test_case "range width scaling" `Quick test_range_width_scaling;
    Alcotest.test_case "range invalid args" `Quick test_range_invalid;
    Alcotest.test_case "range full width" `Quick test_range_full_width;
    Alcotest.test_case "conjunctive query" `Quick test_conjunctive;
    Alcotest.test_case "conjunctive empty" `Quick test_conjunctive_empty_keys;
    Alcotest.test_case "conjunctive skips unresolved" `Quick
      test_conjunctive_skips_unresolved;
    Alcotest.test_case "conjunctive all unresolved" `Quick
      test_conjunctive_all_unresolved;
    Alcotest.test_case "conjunctive duplicate keys" `Quick
      test_conjunctive_duplicate_keys;
    Alcotest.test_case "conjunctive payload dedup" `Quick
      test_conjunctive_dedups_payloads;
    Alcotest.test_case "storm completes" `Quick test_storm_completes;
    Alcotest.test_case "storm: no circuit stuck half-open" `Quick
      test_storm_no_circuit_stuck_half_open;
    Alcotest.test_case "storm: resolved hops leave nothing queued" `Quick
      test_storm_resolved_hops_leave_nothing_queued;
    Alcotest.test_case "storm deterministic" `Quick test_storm_deterministic;
    Alcotest.test_case "storm: benchmark configuration pinned" `Quick
      test_storm_perf_config_pinned;
    Alcotest.test_case "storm sheds under burst" `Quick test_storm_sheds_under_burst;
    Alcotest.test_case "storm hedge dodges dead primary" `Quick
      test_storm_hedge_dodges_dead_primary;
    Alcotest.test_case "storm breaker opens" `Quick test_storm_breaker_opens;
    Alcotest.test_case "storm hedged run pinned" `Quick test_storm_hedged_pinned;
    Alcotest.test_case "storm evicting run pinned" `Quick test_storm_evicting_pinned;
    Alcotest.test_case "storm: candidates drawn one per try" `Quick
      test_storm_candidate_order;
    Alcotest.test_case "storm rejects NaN parameters" `Quick test_storm_rejects_nan;
    Alcotest.test_case "storm rejects bad jitter, evict_after" `Quick
      test_storm_rejects_bad_jitter_evict;
    Alcotest.test_case "lookup batch nobody online" `Quick
      test_lookup_batch_nobody_online;
    Alcotest.test_case "range batch nobody online" `Quick
      test_range_batch_nobody_online;
    Alcotest.test_case "conjunctive uneven postings" `Quick
      test_conjunctive_uneven_postings;
    Alcotest.test_case "engine cacheless = search" `Quick
      test_engine_cacheless_matches_search;
    Alcotest.test_case "walk stops on an exhausted budget" `Quick
      test_walk_budget_exhausted;
    Alcotest.test_case "qcache lru eviction" `Quick test_qcache_lru_eviction;
    Alcotest.test_case "qcache holds thousands of entries" `Quick test_qcache_many_entries;
    Alcotest.test_case "qcache invalidation kinds" `Quick
      test_qcache_invalidation_kinds;
    Alcotest.test_case "qcache observes events" `Quick test_qcache_observe_events;
    Alcotest.test_case "qcache slot footprint" `Quick test_qcache_slot_footprint;
    Alcotest.test_case "qcache invalidation boundary" `Quick
      test_qcache_invalidation_boundary;
    Alcotest.test_case "qcache peer id limit" `Quick test_qcache_peer_id_limit;
    Alcotest.test_case "engine stale fallback" `Quick test_engine_stale_fallback;
    Alcotest.test_case "engine batched lookups" `Quick test_engine_lookup_many;
    Alcotest.test_case "batched lookups probe results only" `Quick
      test_lookup_many_probes_results_only;
    QCheck_alcotest.to_alcotest qcheck_conjunctive_merge_equiv;
    QCheck_alcotest.to_alcotest qcheck_cached_agrees_under_balance_storm;
    QCheck_alcotest.to_alcotest qcheck_qcache_matches_model;
    QCheck_alcotest.to_alcotest qcheck_qcache_matches_model_growing;
  ]
