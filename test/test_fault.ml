(* Tests for Pgrid_simnet.Fault (deterministic fault injection) and the
   hardened timeout / retry / backoff / eviction query path of
   Pgrid_construction.Net_engine (a Storm), plus correction-on-use at the
   Maintenance and Query layers. *)

module Rng = Pgrid_prng.Rng
module Sim = Pgrid_simnet.Sim
module Net = Pgrid_simnet.Net
module Latency = Pgrid_simnet.Latency
module Fault = Pgrid_simnet.Fault
module Churn = Pgrid_simnet.Churn
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event
module Ring = Pgrid_telemetry.Ring
module Sink = Pgrid_telemetry.Sink
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Builder = Pgrid_core.Builder
module Maintenance = Pgrid_core.Maintenance
module Query = Pgrid_query.Query
module Storm = Pgrid_query.Storm
module Distribution = Pgrid_workload.Distribution
module Net_engine = Pgrid_construction.Net_engine

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let close ?(eps = 1e-6) msg a b = Alcotest.check (Alcotest.float eps) msg a b

(* --- plan mini-language -------------------------------------------------- *)

let test_parse_roundtrip () =
  let src =
    "burst(0, 100, 0.1, 0.2, 0, 0.5, 5); partition(10,20,0.25); \
     crash(5,50,0.01,10,40); latency(0,9,4); dup(1,2,0.3)"
  in
  match Fault.parse src with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
    checki "five specs" 5 (List.length plan);
    match Fault.parse (Fault.to_string plan) with
    | Ok plan2 -> checkb "to_string round-trips" true (plan = plan2)
    | Error e -> Alcotest.fail e)

let test_parse_defaults () =
  match Fault.parse "burst(0,10,0.1,0.2,0,1);crash(0,10,0.5)" with
  | Ok [ Fault.Bursty_loss { step; _ }; Fault.Crash_restart { down_min; down_max; _ } ] ->
    close "default chain step" 1. step;
    close "default down_min" 30. down_min;
    close "default down_max" 120. down_max
  | Ok _ -> Alcotest.fail "unexpected plan shape"
  | Error e -> Alcotest.fail e

let test_parse_errors () =
  let bad s = match Fault.parse s with Ok _ -> false | Error _ -> true in
  checkb "unknown fault" true (bad "meteor(1,2)");
  checkb "empty window" true (bad "partition(10,10,0.5)");
  checkb "probability out of range" true (bad "dup(0,1,1.5)");
  checkb "wrong arity" true (bad "latency(0,1)");
  checkb "malformed number" true (bad "dup(0,1,zebra)");
  checkb "missing parenthesis" true (bad "dup(0,1,0.5")

(* --- fault processes on the simulated network ---------------------------- *)

let make_net ?(nodes = 6) ?(loss = 0.) () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:11 in
  let net =
    Net.create ~telemetry:Telemetry.disabled sim rng ~nodes
      ~latency:(Latency.Fixed 0.01) ~loss ~bucket:60.
  in
  (sim, net)

let test_burst_forces_drops () =
  let sim, net = make_net () in
  let received = ref 0 in
  Net.set_handler net (fun _ () -> incr received);
  let fault =
    Fault.install ~telemetry:Telemetry.disabled net ~seed:3
      [
        Fault.Bursty_loss
          { start = 0.; stop = 100.; step = 1.; p_gb = 1.; p_bg = 0.;
            loss_good = 0.; loss_bad = 1. };
      ]
  in
  (* p_gb = 1: after the first chain tick every node sits in the bad
     state; loss_bad = 1 kills every in-window message. *)
  Sim.schedule_at sim ~time:5. (fun () ->
      for dst = 1 to 5 do
        Net.send net ~src:0 ~dst ~bytes:10 ~kind:Net.Query ()
      done);
  Sim.run sim;
  checki "nothing delivered inside the window" 0 !received;
  let s = Fault.stats fault in
  checki "five loss drops" 5 s.Fault.loss_drops;
  checki "each node transitioned to bad exactly once" 6 s.Fault.burst_transitions;
  (* Window hygiene: every chain is reset to good at stop, so later
     traffic flows untouched (base loss is 0, no draw is made). *)
  Sim.schedule_at sim ~time:150. (fun () ->
      for dst = 1 to 5 do
        Net.send net ~src:0 ~dst ~bytes:10 ~kind:Net.Query ()
      done);
  Sim.run sim;
  checki "all delivered after the window" 5 !received

let test_partition_cuts_and_heals () =
  let sim, net = make_net ~nodes:8 () in
  let received = ref 0 in
  Net.set_handler net (fun _ () -> incr received);
  let tel = Telemetry.create () in
  let ring = Ring.create ~capacity:64 in
  Telemetry.add_sink tel (Sink.ring ring);
  let fault =
    Fault.install ~telemetry:tel net ~seed:5
      [ Fault.Partition { start = 10.; stop = 20.; frac = 0.5 } ]
  in
  let cut_pairs = ref 0 and open_pairs = ref 0 in
  Sim.schedule_at sim ~time:15. (fun () ->
      (* Base loss is 0, so inside the window [admits] is deterministic:
         false exactly on pairs the cut separates. *)
      for src = 0 to 7 do
        for dst = 0 to 7 do
          if src <> dst then
            if Fault.admits fault ~src ~dst then incr open_pairs else incr cut_pairs
        done
      done;
      for dst = 1 to 7 do
        Net.send net ~src:0 ~dst ~bytes:10 ~kind:Net.Query ()
      done);
  Sim.schedule_at sim ~time:30. (fun () ->
      for dst = 1 to 7 do
        Net.send net ~src:0 ~dst ~bytes:10 ~kind:Net.Query ()
      done);
  Sim.run sim;
  checkb "the cut separates some pair" true (!cut_pairs > 0);
  checkb "the cut leaves some pair connected" true (!open_pairs > 0);
  let s = Fault.stats fault in
  checkb "cut messages dropped" true (s.Fault.partition_drops > 0);
  checki "deliveries account exactly for the cut" (14 - s.Fault.partition_drops)
    !received;
  (* The window start/stop is announced as a network-wide fault pair. *)
  let ons, offs =
    List.fold_left
      (fun (on, off) e ->
        match e.Event.kind with
        | Event.Fault_on { fault = "partition"; node = -1 } -> (on + 1, off)
        | Event.Fault_off { fault = "partition"; node = -1 } -> (on, off + 1)
        | _ -> (on, off))
      (0, 0) (Ring.to_list ring)
  in
  checki "one activation event" 1 ons;
  checki "one deactivation event" 1 offs

let test_duplicate_delivers_copies () =
  let sim, net = make_net () in
  let received = ref 0 in
  Net.set_handler net (fun _ () -> incr received);
  let fault =
    Fault.install ~telemetry:Telemetry.disabled net ~seed:7
      [ Fault.Duplicate { start = 0.; stop = 100.; prob = 1. } ]
  in
  Sim.schedule_at sim ~time:1. (fun () ->
      for dst = 1 to 5 do
        Net.send net ~src:0 ~dst ~bytes:10 ~kind:Net.Query ()
      done);
  Sim.run sim;
  checki "two copies of each message" 10 !received;
  checki "five duplications counted" 5 (Fault.stats fault).Fault.duplicated

let test_latency_spike_scales_delay () =
  let sim, net = make_net () in
  let arrivals = ref [] in
  Net.set_handler net (fun _ () -> arrivals := Sim.now sim :: !arrivals);
  ignore
    (Fault.install ~telemetry:Telemetry.disabled net ~seed:9
       [ Fault.Latency_spike { start = 0.; stop = 10.; factor = 100. } ]);
  Sim.schedule_at sim ~time:1. (fun () ->
      Net.send net ~src:0 ~dst:1 ~bytes:10 ~kind:Net.Query ());
  Sim.schedule_at sim ~time:20. (fun () ->
      Net.send net ~src:0 ~dst:1 ~bytes:10 ~kind:Net.Query ());
  Sim.run sim;
  match List.rev !arrivals with
  | [ a; b ] ->
    close "in-window delivery stretched 100x" 2. a;
    close "nominal delivery after the window" 20.01 b
  | l -> Alcotest.fail (Printf.sprintf "expected 2 deliveries, saw %d" (List.length l))

let test_crash_restart_cycles () =
  let sim, net = make_net ~nodes:10 () in
  Net.set_handler net (fun _ () -> ());
  let crashes = ref 0 and restarts = ref 0 in
  let fault =
    Fault.install ~telemetry:Telemetry.disabled net
      ~on_crash:(fun i ->
        incr crashes;
        Net.set_online net i false)
      ~on_restart:(fun i ->
        incr restarts;
        Net.set_online net i true)
      ~seed:13
      [
        Fault.Crash_restart
          { start = 0.; stop = 500.; rate = 0.01; down_min = 5.; down_max = 10. };
      ]
  in
  Sim.run sim;
  let s = Fault.stats fault in
  checkb "crashes happened" true (s.Fault.crashes > 0);
  checki "callback per crash" s.Fault.crashes !crashes;
  checki "every crash eventually restarts" !crashes !restarts;
  checki "all nodes back online at the end" 10 (Net.online_count net)

let test_replay_determinism () =
  let run () =
    let sim, net = make_net ~loss:0.1 () in
    let received = ref 0 in
    Net.set_handler net (fun _ () -> incr received);
    let fault =
      Fault.install ~telemetry:Telemetry.disabled net ~seed:21
        [
          Fault.Bursty_loss
            { start = 0.; stop = 200.; step = 2.; p_gb = 0.3; p_bg = 0.3;
              loss_good = 0.05; loss_bad = 0.8 };
          Fault.Duplicate { start = 50.; stop = 150.; prob = 0.3 };
        ]
    in
    let msg_rng = Rng.create ~seed:4 in
    for i = 1 to 200 do
      Sim.schedule_at sim ~time:(float_of_int i) (fun () ->
          let src = Rng.int msg_rng 6 in
          let dst = (src + 1 + Rng.int msg_rng 5) mod 6 in
          Net.send net ~src ~dst ~bytes:10 ~kind:Net.Query ())
    done;
    Sim.run sim;
    (!received, Fault.stats fault)
  in
  checkb "seeded plans replay bit-identically" true (run () = run ())

(* --- correction-on-use (Maintenance / Query layers) ----------------------- *)

let build_overlay seed =
  let rng = Rng.create ~seed in
  let keys = Distribution.generate rng Distribution.Uniform ~n:1500 in
  let overlay =
    Builder.index rng ~peers:150 ~keys ~d_max:50 ~n_min:5 ~refs_per_level:3
  in
  (overlay, keys, rng)

let test_correct_on_use_evicts_and_refills () =
  let overlay, _, rng = build_overlay 31 in
  let peer = 0 in
  let n = Overlay.node overlay peer in
  let target = List.hd (Node.refs_at n ~level:0) in
  Node.set_online (Overlay.node overlay target) false;
  let evicted =
    Maintenance.correct_on_use ~telemetry:Telemetry.disabled ~dead:target rng
      overlay ~peer ~level:0
  in
  checki "the dead reference was evicted" 1 evicted;
  checkb "no longer referenced" true
    (not (List.mem target (Node.refs_at n ~level:0)));
  checkb "the level was refilled with a live reference" true
    (List.exists
       (fun r -> (Overlay.node overlay r).Node.online)
       (Node.refs_at n ~level:0));
  checki "out-of-range level is a no-op" 0
    (Maintenance.correct_on_use ~telemetry:Telemetry.disabled rng overlay ~peer
       ~level:99)

let test_lookup_heal_retries () =
  let overlay, keys, rng = build_overlay 33 in
  (* Hard failures, no graceful hand-over: un-healed lookups hit dead
     ends at levels whose every reference died. *)
  let victims = Rng.sample_without_replacement rng ~k:50 ~n:150 in
  Array.iter (fun id -> Node.set_online (Overlay.node overlay id) false) victims;
  let plain = Query.lookup_batch (Rng.create ~seed:1) overlay ~keys ~count:300 in
  let healed =
    Query.lookup_batch ~heal:true (Rng.create ~seed:1) overlay ~keys ~count:300
  in
  checkb "healing retried some lookups" true (healed.Query.heal_retries > 0);
  checkb "healing evicted stale references" true (healed.Query.evicted_refs > 0);
  checkb "healing does not lose lookups" true
    (healed.Query.routed >= plain.Query.routed)

(* --- the hardened query path under crash-restart faults ------------------- *)

(* One shared run: 48 peers on the paper timeline (churn window emptied so
   the injected faults are the only disturbance), with Poisson
   crash-restarts across most of the query phase.  The telemetry ring
   keeps the event stream for the retry-path assertions. *)
let hardened_run ?breaker ?(telemetry = Telemetry.create ()) () =
  let rng = Rng.create ~seed:42 in
  let base = Net_engine.default_params ~peers:48 in
  let ph = base.Net_engine.phases in
  let no_churn =
    Churn.paper_params ~start:ph.Net_engine.end_time ~stop:ph.Net_engine.end_time
  in
  let params =
    {
      base with
      Net_engine.robust = Some { Net_engine.default_robust with breaker };
      churn = Some no_churn;
      fault_plan =
        [
          Fault.Crash_restart
            {
              start = ph.Net_engine.query_start;
              stop = ph.Net_engine.end_time -. 1200.;
              rate = 1. /. 2000.;
              down_min = 120.;
              down_max = 300.;
            };
        ];
      fault_seed = 99;
    }
  in
  Net_engine.run ~telemetry rng params ~spec:Distribution.Uniform

let hardened_outcome =
  lazy
    (let tel = Telemetry.create () in
     let ring = Ring.create ~capacity:400_000 in
     Telemetry.add_sink tel (Sink.ring ring);
     let o = hardened_run ~telemetry:tel () in
     (o, Ring.to_list ring))

(* Every counter of a hardened run, floats in hex: a change to the
   request path that moves one draw, send or event shows here. *)
let hardened_pin o =
  let qs = o.Net_engine.query_stats and rs = Option.get o.Net_engine.robust_stats in
  let i = string_of_int and f = Printf.sprintf "%h" in
  [
    ("issued", i qs.Net_engine.issued);
    ("succeeded", i qs.Net_engine.succeeded);
    ("failed", i qs.Net_engine.failed);
    ("mean_hops", f qs.Net_engine.mean_hops);
    ("mean_latency", f qs.Net_engine.mean_latency);
    ("timeouts", i rs.Storm.timeouts);
    ("retries", i rs.Storm.retries);
    ("give_ups", i rs.Storm.give_ups);
    ("evictions", i rs.Storm.evictions);
    ("breaker_opens", i rs.Storm.breaker_opens);
    ("breaker_skips", i rs.Storm.breaker_skips);
    ("messages_sent", i o.Net_engine.messages_sent);
    ("messages_dropped", i o.Net_engine.messages_dropped);
  ]

let check_pin expected o =
  Alcotest.(check (list (pair string string))) "pinned" expected (hardened_pin o)

let test_hardened_pinned () =
  check_pin
    [
      ("issued", "5861"); ("succeeded", "5857"); ("failed", "4");
      ("mean_hops", "0x1.9f0e07c7b41fp+0"); ("mean_latency", "0x1.afd8b97c3d76bp+0");
      ("timeouts", "1956"); ("retries", "1193"); ("give_ups", "763");
      ("evictions", "756"); ("breaker_opens", "0"); ("breaker_skips", "0");
      ("messages_sent", "21152"); ("messages_dropped", "1947");
    ]
    (fst (Lazy.force hardened_outcome))

(* The same run with circuit breakers: the CLI's --overload path. *)
let test_hardened_breaker_pinned () =
  check_pin
    [
      ("issued", "5861"); ("succeeded", "5857"); ("failed", "4");
      ("mean_hops", "0x1.9f0e07c7b41fp+0"); ("mean_latency", "0x1.afd8b97c3d76bp+0");
      ("timeouts", "1956"); ("retries", "1193"); ("give_ups", "763");
      ("evictions", "756"); ("breaker_opens", "8"); ("breaker_skips", "0");
      ("messages_sent", "21152"); ("messages_dropped", "1947");
    ]
    (hardened_run ~breaker:Pgrid_simnet.Breaker.default_config ())

(* The hardened path validates its config before the run starts. *)
let test_hardened_rejects_bad_config () =
  let params =
    {
      (Net_engine.default_params ~peers:8) with
      Net_engine.robust = Some { Net_engine.default_robust with req_timeout = -1. };
    }
  in
  Alcotest.check_raises "negative req_timeout"
    (Invalid_argument "Storm.create: req_timeout must be positive") (fun () ->
      ignore (Net_engine.run (Rng.create ~seed:1) params ~spec:Distribution.Uniform))

let test_hardened_run_succeeds_under_crashes () =
  let o, _ = Lazy.force hardened_outcome in
  let qs = o.Net_engine.query_stats in
  let rs = Option.get o.Net_engine.robust_stats in
  checkb "a real query load ran" true (qs.Net_engine.issued > 1000);
  checkb "timeouts observed" true (rs.Storm.timeouts > 0);
  checkb "retries observed" true (rs.Storm.retries > 0);
  checkb "stale references evicted" true (rs.Storm.evictions > 0);
  (match o.Net_engine.fault_stats with
  | Some f -> checkb "crashes injected" true (f.Fault.crashes > 0)
  | None -> Alcotest.fail "fault stats missing on a faulted run");
  let success =
    float_of_int qs.Net_engine.succeeded /. float_of_int (max 1 qs.Net_engine.issued)
  in
  checkb "success >= 80% despite crash-restarts" true (success >= 0.8)

let test_retry_backoff_grows () =
  let _, events = Lazy.force hardened_outcome in
  (* A clean chain on one (src, dst) link reads, consecutively in that
     link's event stream: Timeout(attempt 0) at t0, Retry(attempt 1) at
     the same stamp (the re-send), Timeout(attempt 1) at t1.  Then
     t1 - t0 is the attempt-1 timeout req_timeout * backoff * (1 + j*u),
     which must exceed the attempt-0 maximum req_timeout * (1 + j) —
     the backoff grew.  Interleaved chains on the same link break the
     consecutive pattern, so they are skipped (and at worst a handful of
     mismatched triples slip through; tolerate < 10%). *)
  let r = Net_engine.default_robust in
  let lo = r.Storm.req_timeout *. Pgrid_simnet.Sim.backoff in
  let hi = lo *. (1. +. r.Storm.jitter) in
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun e ->
      let push key v =
        Hashtbl.replace tbl key
          (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
      in
      match e.Event.kind with
      | Event.Timeout { src; dst; attempt; _ } ->
        push (src, dst) (e.Event.time, `T attempt)
      | Event.Retry { src; dst; attempt; _ } ->
        push (src, dst) (e.Event.time, `R attempt)
      | _ -> ())
    events;
  let found = ref 0 and off = ref 0 in
  Hashtbl.iter
    (fun _ evs ->
      let rec scan = function
        | (t0, `T 0) :: (t0', `R 1) :: (t1, `T 1) :: rest when t0' = t0 ->
          incr found;
          let d = t1 -. t0 in
          if not (d >= lo -. 1e-9 && d <= hi +. 1e-9) then incr off;
          scan rest
        | _ :: rest -> scan rest
        | [] -> ()
      in
      scan (List.rev evs))
    tbl;
  checkb "some retried request timed out again" true (!found > 0);
  checkb "attempt-1 timeouts sit in [req_timeout*backoff, *(1+jitter)]" true
    (!off * 10 <= !found)

let test_eviction_after_repeated_timeouts () =
  let _, events = Lazy.force hardened_outcome in
  let evicts = ref 0 and give_ups = ref 0 in
  List.iter
    (fun e ->
      match e.Event.kind with
      | Event.Ref_evict _ -> incr evicts
      | Event.Give_up _ -> incr give_ups
      | _ -> ())
    events;
  checkb "Ref_evict events emitted" true (!evicts > 0);
  checkb "abandoned requests emit Give_up" true (!give_ups > 0)

let test_restarted_peer_answers_from_store () =
  let _, events = Lazy.force hardened_outcome in
  (* A Query_hop to a peer is only emitted once its Pong arrived; seeing
     one after the peer's crash window closed proves a restarted peer
     answers from its persisted path and store. *)
  let restarted = Hashtbl.create 32 in
  let witnessed = ref false in
  List.iter
    (fun e ->
      match e.Event.kind with
      | Event.Fault_off { fault = "crash"; node } -> Hashtbl.replace restarted node ()
      | Event.Query_hop { dst; _ } when Hashtbl.mem restarted dst -> witnessed := true
      | _ -> ())
    events;
  checkb "a crash-restarted peer answered a liveness ping" true !witnessed

let suite =
  [
    Alcotest.test_case "plan parse round-trip" `Quick test_parse_roundtrip;
    Alcotest.test_case "plan parse defaults" `Quick test_parse_defaults;
    Alcotest.test_case "plan parse errors" `Quick test_parse_errors;
    Alcotest.test_case "bursty loss drops in-window" `Quick test_burst_forces_drops;
    Alcotest.test_case "partition cuts and heals" `Quick test_partition_cuts_and_heals;
    Alcotest.test_case "duplication delivers copies" `Quick test_duplicate_delivers_copies;
    Alcotest.test_case "latency spike scales delay" `Quick test_latency_spike_scales_delay;
    Alcotest.test_case "crash-restart cycles" `Quick test_crash_restart_cycles;
    Alcotest.test_case "seeded replay determinism" `Quick test_replay_determinism;
    Alcotest.test_case "correction-on-use evicts and refills" `Quick
      test_correct_on_use_evicts_and_refills;
    Alcotest.test_case "lookup_batch heals dead ends" `Quick test_lookup_heal_retries;
    Alcotest.test_case "hardened run under crashes" `Quick
      test_hardened_run_succeeds_under_crashes;
    Alcotest.test_case "hardened run pinned" `Quick test_hardened_pinned;
    Alcotest.test_case "hardened breaker run pinned" `Quick test_hardened_breaker_pinned;
    Alcotest.test_case "hardened config rejected at setup" `Quick
      test_hardened_rejects_bad_config;
    Alcotest.test_case "retry backoff grows" `Quick test_retry_backoff_grows;
    Alcotest.test_case "repeated timeouts evict" `Quick
      test_eviction_after_repeated_timeouts;
    Alcotest.test_case "restarted peer answers" `Quick
      test_restarted_peer_answers_from_store;
  ]
