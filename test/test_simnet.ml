(* Tests for Pgrid_simnet: the event queue, latency models, the network,
   the unstructured overlay, churn and the vote protocol. *)

module Rng = Pgrid_prng.Rng
module Sim = Pgrid_simnet.Sim
module Latency = Pgrid_simnet.Latency
module Net = Pgrid_simnet.Net
module Unstructured = Pgrid_simnet.Unstructured
module Churn = Pgrid_simnet.Churn
module Vote = Pgrid_simnet.Vote
module Breaker = Pgrid_simnet.Breaker
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event
module Ring = Pgrid_telemetry.Ring
module Sink = Pgrid_telemetry.Sink

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let close ?(eps = 1e-9) msg a b = Alcotest.check (Alcotest.float eps) msg a b

(* --- Sim --------------------------------------------------------------- *)

let test_sim_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:3. (fun () -> log := 3 :: !log);
  Sim.schedule sim ~delay:1. (fun () -> log := 1 :: !log);
  Sim.schedule sim ~delay:2. (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.check (Alcotest.list Alcotest.int) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_sim_tie_break () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:1. (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.check (Alcotest.list Alcotest.int) "FIFO at equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_sim_clock () =
  let sim = Sim.create () in
  let seen = ref 0. in
  Sim.schedule sim ~delay:5. (fun () -> seen := Sim.now sim);
  Sim.run sim;
  close "clock advances to event" 5. !seen;
  close "clock stays" 5. (Sim.now sim)

let test_sim_run_until () =
  let sim = Sim.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Sim.schedule sim ~delay:d (fun () -> fired := d :: !fired))
    [ 1.; 2.; 3.; 4. ];
  Sim.run_until sim ~time:3.;
  Alcotest.check (Alcotest.list (Alcotest.float 0.)) "only events strictly before"
    [ 1.; 2. ] (List.rev !fired);
  close "clock set to boundary" 3. (Sim.now sim);
  checki "two still pending" 2 (Sim.pending sim)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:1. (fun () ->
      log := "outer" :: !log;
      Sim.schedule sim ~delay:1. (fun () -> log := "inner" :: !log));
  Sim.run sim;
  Alcotest.check (Alcotest.list Alcotest.string) "nested events fire"
    [ "outer"; "inner" ] (List.rev !log);
  close "final time" 2. (Sim.now sim)

let test_sim_negative_delay () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative rejected" (Invalid_argument "Sim.schedule: delay must be >= 0")
    (fun () -> Sim.schedule sim ~delay:(-1.) (fun () -> ()))

(* A NaN time must be refused at the door: once in the heap it would
   become the clock, and nothing scheduled after it would ever fire.  Each
   test also checks that the refused call left the simulator working. *)
let still_fires sim =
  let fired = ref false in
  Sim.schedule sim ~delay:1. (fun () -> fired := true);
  Sim.run_until sim ~time:(Sim.now sim +. 2.);
  checkb "later events still fire" true !fired

let test_sim_schedule_nan () =
  let sim = Sim.create () in
  Alcotest.check_raises "NaN delay" (Invalid_argument "Sim.schedule: delay must be >= 0")
    (fun () -> Sim.schedule sim ~delay:Float.nan (fun () -> ()));
  still_fires sim

let test_sim_schedule_at_nan () =
  let sim = Sim.create () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Sim.schedule_at: time is NaN")
    (fun () -> Sim.schedule_at sim ~time:Float.nan (fun () -> ()));
  still_fires sim

let test_sim_timer_nan () =
  let sim = Sim.create () in
  Alcotest.check_raises "NaN delay" (Invalid_argument "Sim.timer: delay must be >= 0")
    (fun () -> ignore (Sim.timer sim ~delay:Float.nan (fun () -> ())));
  still_fires sim

let test_sim_run_until_nan () =
  let sim = Sim.create () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Sim.run_until: time is NaN")
    (fun () -> Sim.run_until sim ~time:Float.nan);
  still_fires sim

(* The heap moves only unboxed times and ints and the callbacks wait in
   the slot table, so popping and running events allocates nothing, and
   neither does cancelling a timer. *)
let test_sim_run_allocates_nothing () =
  let sim = Sim.create () in
  let count = ref 0 in
  let tick () = incr count in
  let rng = Rng.create ~seed:3 in
  let timers =
    Array.init 10_000 (fun i ->
        let delay = float_of_int (Rng.int rng 500) in
        if i land 1 = 0 then begin
          Sim.schedule sim ~delay tick;
          Sim.no_timer
        end
        else Sim.timer sim ~delay tick)
  in
  let before = Gc.minor_words () in
  Array.iteri (fun i h -> if i mod 4 = 1 then Sim.cancel sim h) timers;
  Sim.run sim;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "events run" 7_500 !count;
  if words > 10. then Alcotest.failf "running 7,500 events allocated %.0f minor words" words

let test_net_rejects_nan () =
  let create ~loss ~bucket () =
    ignore
      (Net.create (Sim.create ()) (Rng.create ~seed:1) ~nodes:2
         ~latency:(Latency.Fixed 0.1) ~loss ~bucket)
  in
  Alcotest.check_raises "NaN loss" (Invalid_argument "Net.create: loss must be in [0, 1)")
    (create ~loss:Float.nan ~bucket:1.);
  Alcotest.check_raises "NaN bucket" (Invalid_argument "Net.create: bucket must be positive")
    (create ~loss:0. ~bucket:Float.nan)

let test_sim_many_events () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    Sim.schedule sim ~delay:(Rng.float rng) (fun () -> incr count)
  done;
  Sim.run sim;
  checki "all fired" 10_000 !count

(* --- Sim.every ---------------------------------------------------------- *)

(* The times [f] ran at, for a process whose periods cycle through [gaps]. *)
let every_times ~at ~until gaps =
  let sim = Sim.create () in
  let runs = ref [] and next = ref gaps in
  let period () =
    match !next with
    | g :: rest ->
      next := rest @ [ g ];
      g
    | [] -> assert false
  in
  Sim.every sim ~at ~until ~period (fun () -> runs := Sim.now sim :: !runs);
  Sim.run sim;
  List.rev !runs

let floats = Alcotest.(list (float 0.))

let test_every_schedule () =
  Alcotest.check floats "first at [at], then period () after each run"
    [ 1.; 3.; 6.; 11.; 13.; 16. ]
    (every_times ~at:1. ~until:20. [ 2.; 3.; 5. ])

let test_every_until () =
  Alcotest.check floats "nothing at [until]" [ 1.; 3.; 6.; 11.; 13. ]
    (every_times ~at:1. ~until:16. [ 2.; 3.; 5. ]);
  Alcotest.check floats "at = until: never" [] (every_times ~at:5. ~until:5. [ 1. ]);
  Alcotest.check floats "at > until: never" [] (every_times ~at:6. ~until:5. [ 1. ])

let test_every_period_after_f () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.every sim ~at:0. ~until:3.
    ~period:(fun () ->
      log := "period" :: !log;
      1.)
    (fun () -> log := "f" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "period drawn after each run"
    [ "f"; "period"; "f"; "period"; "f"; "period" ]
    (List.rev !log)

let test_every_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  let every name =
    Sim.every sim ~at:1. ~until:3.5 ~period:(fun () -> 1.) (fun () ->
        log := (name, Sim.now sim) :: !log)
  in
  every "a";
  every "b";
  Sim.schedule_at sim ~time:2. (fun () -> log := ("event", Sim.now sim) :: !log);
  Sim.run sim;
  (* At t = 2, a and b were re-armed at t = 1, after the event. *)
  Alcotest.(check (list (pair string (float 0.)))) "scheduling order at equal times"
    [ ("a", 1.); ("b", 1.); ("event", 2.); ("a", 2.); ("b", 2.); ("a", 3.); ("b", 3.) ]
    (List.rev !log)

let test_every_rejects () =
  let raises what f =
    checkb what true (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  let sim = Sim.create () in
  raises "NaN at" (fun () ->
      Sim.every sim ~at:Float.nan ~until:10. ~period:(fun () -> 1.) ignore);
  checki "nothing scheduled" 0 (Sim.pending sim);
  let run period () =
    let sim = Sim.create () in
    Sim.every sim ~at:0. ~until:10. ~period ignore;
    Sim.run sim
  in
  raises "negative period" (run (fun () -> -1.));
  raises "NaN period" (run (fun () -> Float.nan))

(* --- Latency ------------------------------------------------------------ *)

let test_latency_fixed () =
  let rng = Rng.create ~seed:2 in
  close "fixed" 0.25 (Latency.sample (Latency.Fixed 0.25) rng)

let test_latency_floor () =
  let rng = Rng.create ~seed:3 in
  let model = Latency.Lognormal { mu = log 0.001; sigma = 0.1; floor = 0.05 } in
  for _ = 1 to 200 do
    checkb "floored" true (Latency.sample model rng >= 0.05)
  done

let test_latency_planetlab_positive () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 500 do
    checkb "positive" true (Latency.sample Latency.planetlab rng > 0.)
  done

(* --- Net ----------------------------------------------------------------- *)

let make_net ?(nodes = 4) ?(loss = 0.) () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:5 in
  let net = Net.create sim rng ~nodes ~latency:(Latency.Fixed 0.1) ~loss ~bucket:1. in
  (sim, net)

let test_net_delivery () =
  let sim, net = make_net () in
  let received = ref [] in
  Net.set_handler net (fun dst msg -> received := (dst, msg, Sim.now sim) :: !received);
  Net.send net ~src:0 ~dst:1 ~bytes:100 ~kind:Net.Maintenance "hello";
  Sim.run sim;
  match !received with
  | [ (1, "hello", t) ] -> close "arrives after latency" 0.1 t
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_net_offline_drop () =
  let sim, net = make_net () in
  let received = ref 0 in
  Net.set_handler net (fun _ _ -> incr received);
  Net.set_online net 1 false;
  Net.send net ~src:0 ~dst:1 ~bytes:10 ~kind:Net.Maintenance "x";
  (* Offline sender: never reaches the wire, but is still accounted as a
     drop so traces don't under-count traffic during churn. *)
  Net.set_online net 2 false;
  Net.send net ~src:2 ~dst:0 ~bytes:10 ~kind:Net.Maintenance "y";
  Sim.run sim;
  checki "nothing delivered" 0 !received;
  checki "both failures recorded as drops" 2 (Net.messages_dropped net);
  checki "only the online sender sent" 1 (Net.messages_sent net)

let test_net_loss () =
  let sim, net = make_net ~loss:0.5 () in
  let received = ref 0 in
  Net.set_handler net (fun _ _ -> incr received);
  for _ = 1 to 2000 do
    Net.send net ~src:0 ~dst:1 ~bytes:1 ~kind:Net.Query "m"
  done;
  Sim.run sim;
  checkb "about half delivered" true (!received > 800 && !received < 1200)

let test_net_bandwidth_accounting () =
  let sim, net = make_net () in
  Net.send net ~src:0 ~dst:1 ~bytes:300 ~kind:Net.Maintenance "a";
  Sim.run_until sim ~time:2.5;
  Net.account net ~bytes:600 ~kind:Net.Query;
  let maint = Net.bandwidth net Net.Maintenance in
  let query = Net.bandwidth net Net.Query in
  (match maint with
  | [ (t, bps) ] ->
    close "bucket midpoint" 0.5 t;
    close "bytes per second" 300. bps
  | _ -> Alcotest.fail "one maintenance bucket expected");
  match query with
  | [ (t, bps) ] ->
    close "query bucket midpoint" 2.5 t;
    close "query Bps" 600. bps
  | _ -> Alcotest.fail "one query bucket expected"

let test_net_online_count () =
  let _, net = make_net ~nodes:5 () in
  checki "all online" 5 (Net.online_count net);
  Net.set_online net 0 false;
  Net.set_online net 3 false;
  checki "two offline" 3 (Net.online_count net)

(* --- Net: bounded service queues ----------------------------------------- *)

let events_of ring = List.map (fun e -> e.Event.kind) (Ring.to_list ring)

let make_service_net ?(nodes = 4) ?(capacity = 4) ?(threshold = 2) ?telemetry () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:5 in
  let service =
    Some { Net.service_rate = 2.; queue_capacity = capacity; query_threshold = threshold }
  in
  let net =
    Net.create ?telemetry ?service sim rng ~nodes ~latency:(Latency.Fixed 0.1)
      ~loss:0. ~bucket:1.
  in
  (sim, net)

let test_service_drain_rate () =
  let sim, net = make_service_net () in
  let received = ref [] in
  Net.set_handler net (fun _ msg -> received := (msg, Sim.now sim) :: !received);
  for i = 1 to 2 do
    Net.send net ~src:0 ~dst:1 ~bytes:10 ~kind:Net.Maintenance i
  done;
  Sim.run sim;
  (* Latency 0.1, then one service completion every 1/rate = 0.5 s, in
     arrival order. *)
  (match List.rev !received with
  | [ (1, t1); (2, t2) ] ->
    close "first served one slot after arrival" 0.6 t1;
    close "second served one slot later" 1.1 t2
  | _ -> Alcotest.fail "expected two deliveries in order");
  checki "nothing shed" 0 (Net.messages_shed net);
  checki "peak backlog" 2 (Net.queue_peak net);
  checki "queues empty after run" 0 (Net.backlog net)

let test_service_sheds_at_capacity () =
  let sim, net = make_service_net ~capacity:4 ~threshold:4 () in
  let received = ref 0 in
  Net.set_handler net (fun _ _ -> incr received);
  for i = 1 to 10 do
    Net.send net ~src:0 ~dst:1 ~bytes:1 ~kind:Net.Maintenance i
  done;
  Sim.run sim;
  (* All ten arrive (fixed latency) before the first service slot at
     0.6: four are admitted, six shed. *)
  checki "queue capacity admitted" 4 !received;
  checki "overflow shed" 6 (Net.messages_shed net);
  checki "shed counted per class" 6 (Net.shed_of_kind net Net.Maintenance);
  checki "sheds are not drops" 0 (Net.messages_dropped net)

let test_service_priority_classes () =
  (* Queries shed at the lower threshold while maintenance still fits:
     degraded mode keeps repair traffic flowing. *)
  let sim, net = make_service_net ~capacity:4 ~threshold:2 () in
  let received = ref [] in
  Net.set_handler net (fun _ msg -> received := msg :: !received);
  for i = 1 to 2 do
    Net.send net ~src:0 ~dst:1 ~bytes:1 ~kind:Net.Query i
  done;
  Net.send net ~src:0 ~dst:1 ~bytes:1 ~kind:Net.Query 3;
  Net.send net ~src:0 ~dst:1 ~bytes:1 ~kind:Net.Maintenance 4;
  Net.send net ~src:0 ~dst:1 ~bytes:1 ~kind:Net.Maintenance 5;
  Net.send net ~src:0 ~dst:1 ~bytes:1 ~kind:Net.Maintenance 6;
  Sim.run sim;
  checki "query shed at its threshold" 1 (Net.shed_of_kind net Net.Query);
  checki "maintenance shed only at capacity" 1 (Net.shed_of_kind net Net.Maintenance);
  Alcotest.(check (list int))
    "admitted in arrival order" [ 1; 2; 4; 5 ] (List.rev !received)

let test_service_offline_burns_slot () =
  let sim, net = make_service_net () in
  let received = ref 0 in
  Net.set_handler net (fun _ _ -> incr received);
  Net.send net ~src:0 ~dst:1 ~bytes:1 ~kind:Net.Maintenance 1;
  (* Knock the destination offline after the message is queued but
     before its service slot completes at 0.6. *)
  Sim.schedule sim ~delay:0.3 (fun () -> Net.set_online net 1 false);
  Sim.run sim;
  checki "nothing delivered" 0 !received;
  checki "queued message dropped at service time" 1 (Net.messages_dropped net);
  checki "not shed" 0 (Net.messages_shed net);
  checki "queue drained anyway" 0 (Net.backlog net)

let test_service_shed_event () =
  let tel = Telemetry.create () in
  let ring = Ring.create ~capacity:16 in
  Telemetry.add_sink tel (Sink.ring ring);
  let sim, net = make_service_net ~telemetry:tel ~capacity:1 ~threshold:1 () in
  Net.send net ~src:0 ~dst:1 ~bytes:1 ~kind:Net.Query 1;
  Net.send net ~src:2 ~dst:1 ~bytes:1 ~kind:Net.Query 2;
  Sim.run sim;
  let sheds =
    List.filter
      (function Event.Msg_shed _ -> true | _ -> false)
      (events_of ring)
  in
  (match sheds with
  | [ Event.Msg_shed { src = 2; dst = 1; traffic = Event.Query; backlog = 1 } ] -> ()
  | _ -> Alcotest.fail "expected one Msg_shed event with queue depth 1");
  checki "shed counter agrees" 1 (Net.messages_shed net)

(* --- Net: accounting tags (satellite: src/dst provenance) ------------------ *)

let test_net_account_default_tags () =
  let tel = Telemetry.create () in
  let ring = Ring.create ~capacity:16 in
  Telemetry.add_sink tel (Sink.ring ring);
  let sim = Sim.create () in
  let net =
    Net.create ~telemetry:tel sim (Rng.create ~seed:5) ~nodes:3
      ~latency:(Latency.Fixed 0.1) ~loss:0. ~bucket:1.
  in
  ignore sim;
  (* Synthetic traffic with no named endpoints is tagged src = dst = -1,
     distinguishing it from any real node id in the trace. *)
  Net.account net ~bytes:50 ~kind:Net.Query;
  Net.account ~src:2 ~dst:0 net ~bytes:25 ~kind:Net.Maintenance;
  (match events_of ring with
  | [ Event.Msg_send { src = -1; dst = -1; bytes = 50; traffic = Event.Query };
      Event.Msg_send { src = 2; dst = 0; bytes = 25; traffic = Event.Maintenance } ] ->
    ()
  | _ -> Alcotest.fail "expected two Msg_send events with -1 default tags")

let test_net_offline_source_events () =
  let tel = Telemetry.create () in
  let ring = Ring.create ~capacity:16 in
  Telemetry.add_sink tel (Sink.ring ring);
  let sim = Sim.create () in
  let net =
    Net.create ~telemetry:tel sim (Rng.create ~seed:5) ~nodes:3
      ~latency:(Latency.Fixed 0.1) ~loss:0. ~bucket:1.
  in
  Net.set_online net 2 false;
  Net.send net ~src:2 ~dst:0 ~bytes:10 ~kind:Net.Maintenance "y";
  Sim.run sim;
  (* An offline sender is pure drop: no bytes hit the wire, so no
     Msg_send — but the attempt is visible as a Msg_drop naming both
     endpoints, and the counters agree. *)
  (match events_of ring with
  | [ Event.Msg_drop { src = 2; dst = 0 } ] -> ()
  | _ -> Alcotest.fail "expected exactly one Msg_drop from the offline source");
  checki "accounted as drop" 1 (Net.messages_dropped net);
  checki "never sent" 0 (Net.messages_sent net)

(* --- Breaker --------------------------------------------------------------- *)

let make_breaker ?(failures = 3) ?(cooldown = 10.) () =
  let now = ref 0. in
  let br =
    Breaker.create { Breaker.failures; cooldown } ~now:(fun () -> !now)
  in
  (now, br)

let test_breaker_opens_after_k () =
  let _now, br = make_breaker ~failures:3 () in
  for _ = 1 to 2 do
    Breaker.record_failure br ~origin:0 ~target:1
  done;
  checkb "still closed below threshold" true (Breaker.admits br ~origin:0 ~target:1);
  Breaker.record_failure br ~origin:0 ~target:1;
  checkb "open at threshold" false (Breaker.admits br ~origin:0 ~target:1);
  checki "one open recorded" 1 (Breaker.opens br);
  checki "one circuit currently open" 1 (Breaker.open_count br);
  (* Links are independent: a different (origin, target) is untouched. *)
  checkb "other link unaffected" true (Breaker.admits br ~origin:0 ~target:2)

let test_breaker_success_resets_count () =
  let _now, br = make_breaker ~failures:3 () in
  Breaker.record_failure br ~origin:0 ~target:1;
  Breaker.record_failure br ~origin:0 ~target:1;
  Breaker.record_success br ~origin:0 ~target:1;
  Breaker.record_failure br ~origin:0 ~target:1;
  Breaker.record_failure br ~origin:0 ~target:1;
  checkb "consecutive count reset by success" true
    (Breaker.admits br ~origin:0 ~target:1)

let test_breaker_half_open_probe () =
  let now, br = make_breaker ~failures:1 ~cooldown:10. () in
  Breaker.record_failure br ~origin:0 ~target:1;
  checkb "open during cooldown" false (Breaker.admits br ~origin:0 ~target:1);
  now := 10.;
  checkb "half-open admits one probe" true (Breaker.admits br ~origin:0 ~target:1);
  checkb "but only one" false (Breaker.admits br ~origin:0 ~target:1);
  Breaker.record_success br ~origin:0 ~target:1;
  checkb "probe success closes" true (Breaker.admits br ~origin:0 ~target:1);
  checki "no circuit open any more" 0 (Breaker.open_count br)

let test_breaker_abandon_probe () =
  let now, br = make_breaker ~failures:1 ~cooldown:10. () in
  Breaker.record_failure br ~origin:0 ~target:1;
  Breaker.abandon br ~origin:0 ~target:1;
  checkb "abandon leaves an open circuit open" false (Breaker.admits br ~origin:0 ~target:1);
  now := 10.;
  checkb "probe admitted" true (Breaker.admits br ~origin:0 ~target:1);
  checkb "it is the probe" true (Breaker.probing br ~origin:0 ~target:1);
  checki "one circuit half-open" 1 (Breaker.half_open br);
  Breaker.abandon br ~origin:0 ~target:1;
  checki "released" 0 (Breaker.half_open br);
  checkb "next request probes at once" true (Breaker.admits br ~origin:0 ~target:1);
  checkb "and only one" false (Breaker.admits br ~origin:0 ~target:1);
  checki "still counted open" 1 (Breaker.open_count br);
  checki "no new open transition" 1 (Breaker.opens br);
  Breaker.record_success br ~origin:0 ~target:1;
  Breaker.abandon br ~origin:0 ~target:1;
  checkb "abandon leaves a closed circuit closed" true (Breaker.admits br ~origin:0 ~target:1);
  checkb "closed is not probing" false (Breaker.probing br ~origin:0 ~target:1)

let test_breaker_half_open_reopen () =
  let now, br = make_breaker ~failures:1 ~cooldown:10. () in
  Breaker.record_failure br ~origin:0 ~target:1;
  now := 10.;
  checkb "probe admitted" true (Breaker.admits br ~origin:0 ~target:1);
  Breaker.record_failure br ~origin:0 ~target:1;
  checkb "probe failure re-opens" false (Breaker.admits br ~origin:0 ~target:1);
  now := 19.9;
  checkb "new cooldown runs from the re-open" false
    (Breaker.admits br ~origin:0 ~target:1);
  now := 20.;
  checkb "then probes again" true (Breaker.admits br ~origin:0 ~target:1);
  (* The circuit never closed across the failed probe, so the cumulative
     open count (and the Breaker_open event stream) shows one open. *)
  checki "one open transition recorded" 1 (Breaker.opens br);
  checki "still counted as currently open" 1 (Breaker.open_count br)

let test_breaker_events () =
  let tel = Telemetry.create () in
  let ring = Ring.create ~capacity:16 in
  Telemetry.add_sink tel (Sink.ring ring);
  let now = ref 0. in
  let br =
    Breaker.create ~telemetry:tel { Breaker.failures = 2; cooldown = 5. }
      ~now:(fun () -> !now)
  in
  Breaker.record_failure br ~origin:3 ~target:9;
  Breaker.record_failure br ~origin:3 ~target:9;
  now := 5.;
  ignore (Breaker.admits br ~origin:3 ~target:9);
  Breaker.record_success br ~origin:3 ~target:9;
  match events_of ring with
  | [ Event.Breaker_open { origin = 3; target = 9; failures = 2 };
      Event.Breaker_close { origin = 3; target = 9 } ] ->
    ()
  | _ -> Alcotest.fail "expected Breaker_open then Breaker_close"

(* --- Unstructured --------------------------------------------------------- *)

let test_unstructured_degree () =
  let rng = Rng.create ~seed:6 in
  let g = Unstructured.create rng ~nodes:50 ~degree:4 in
  checki "nodes" 50 (Unstructured.nodes g);
  for i = 0 to 49 do
    checkb "at least degree links" true (List.length (Unstructured.neighbors g i) >= 4)
  done

let test_unstructured_symmetric () =
  let rng = Rng.create ~seed:7 in
  let g = Unstructured.create rng ~nodes:30 ~degree:3 in
  for i = 0 to 29 do
    List.iter
      (fun j -> checkb "symmetric" true (List.mem i (Unstructured.neighbors g j)))
      (Unstructured.neighbors g i)
  done

let test_random_walk_reaches_online () =
  let rng = Rng.create ~seed:8 in
  let g = Unstructured.create rng ~nodes:40 ~degree:4 in
  let offline = [ 3; 7; 11 ] in
  let online i = not (List.mem i offline) in
  for _ = 1 to 200 do
    let e = Unstructured.random_walk g rng ~online ~start:0 ~steps:8 in
    checkb "endpoint online" true (online e)
  done

let test_random_walk_isolated () =
  let rng = Rng.create ~seed:9 in
  let g = Unstructured.create rng ~nodes:10 ~degree:2 in
  (* Everyone else offline: the walk cannot move. *)
  let online i = i = 0 in
  checki "stays at start" 0 (Unstructured.random_walk g rng ~online ~start:0 ~steps:5)

let test_random_walk_spread () =
  let rng = Rng.create ~seed:10 in
  let g = Unstructured.create rng ~nodes:64 ~degree:5 in
  let h = Pgrid_stats.Histogram.create ~lo:0. ~hi:64. ~bins:8 in
  for _ = 1 to 8_000 do
    let e =
      Unstructured.random_walk g rng ~online:(fun _ -> true) ~start:0 ~steps:12
    in
    Pgrid_stats.Histogram.add h (float_of_int e)
  done;
  (* Long walks approximate the (degree-weighted) stationary distribution:
     every 8-node bucket should hold a reasonable share. *)
  let n = Pgrid_stats.Histogram.normalized h in
  Array.iter (fun share -> checkb "no empty region" true (share > 0.04)) n

let test_flood_reaches_all () =
  let rng = Rng.create ~seed:11 in
  let g = Unstructured.create rng ~nodes:40 ~degree:4 in
  let reached, traversals = Unstructured.flood g ~start:0 ~ttl:10 ~online:(fun _ -> true) in
  checki "all reached" 40 (List.length reached);
  checkb "cost recorded" true (traversals > 0)

let test_flood_ttl_limits () =
  let rng = Rng.create ~seed:12 in
  let g = Unstructured.create rng ~nodes:200 ~degree:2 in
  let one_hop, _ = Unstructured.flood g ~start:0 ~ttl:1 ~online:(fun _ -> true) in
  checkb "ttl 1 reaches only neighbors" true
    (List.length one_hop <= 1 + List.length (Unstructured.neighbors g 0))

let test_flood_offline_start () =
  let rng = Rng.create ~seed:13 in
  let g = Unstructured.create rng ~nodes:10 ~degree:2 in
  let reached, _ = Unstructured.flood g ~start:0 ~ttl:3 ~online:(fun i -> i <> 0) in
  checkb "offline start reaches nobody... but itself is excluded" true
    (not (List.mem 0 reached))

(* --- Churn ------------------------------------------------------------------ *)

let test_churn_cycles () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:14 in
  let online = Array.make 10 true in
  let transitions = ref 0 in
  Churn.install sim rng
    {
      Churn.start = 0.;
      stop = 3000.;
      off_min = 10.;
      off_max = 20.;
      period_min = 50.;
      period_max = 100.;
    }
    ~node_ids:(List.init 10 (fun i -> i))
    ~set_online:(fun i v ->
      online.(i) <- v;
      incr transitions);
  Sim.run sim;
  checkb "transitions happened" true (!transitions > 10);
  checkb "everyone back online at the end" true (Array.for_all (fun v -> v) online)

let test_churn_offline_periods () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:15 in
  let offline_seen = ref false in
  let online = Array.make 5 true in
  Churn.install sim rng
    (Churn.paper_params ~start:0. ~stop:3600.)
    ~node_ids:[ 0; 1; 2; 3; 4 ]
    ~set_online:(fun i v ->
      online.(i) <- v;
      if not v then offline_seen := true);
  Sim.run sim;
  checkb "nodes actually go offline" true !offline_seen

let test_churn_clamp_recovery () =
  (* Long offline intervals straddle the stop time: unclamped, the
     recovery lands after [stop]; clamped, it lands exactly at [stop].
     The random draw sequence must be identical either way. *)
  let run clamp =
    let sim = Sim.create () in
    let rng = Rng.create ~seed:44 in
    let last_transition = Array.make 8 0. in
    let transitions = ref 0 in
    Churn.install ~clamp sim rng
      {
        Churn.start = 0.;
        stop = 1000.;
        off_min = 400.;
        off_max = 500.;
        period_min = 450.;
        period_max = 600.;
      }
      ~node_ids:(List.init 8 (fun i -> i))
      ~set_online:(fun i _ ->
        last_transition.(i) <- Sim.now sim;
        incr transitions);
    Sim.run sim;
    (Array.fold_left Float.max 0. last_transition, !transitions)
  in
  let unclamped, n1 = run false in
  let clamped, n2 = run true in
  checkb "some interval straddles stop" true (unclamped > 1000.);
  checkb "clamped recovery at stop" true (clamped <= 1000.);
  checki "clamping never changes the draw sequence" n1 n2

(* --- Vote --------------------------------------------------------------------- *)

let test_vote_aggregation () =
  let rng = Rng.create ~seed:16 in
  let g = Unstructured.create rng ~nodes:20 ~degree:4 in
  let ballot_of i =
    { Vote.approve = i mod 4 <> 0; storage = 100; items = 10 }
  in
  let r = Vote.run g ~initiator:0 ~ttl:10 ~online:(fun _ -> true) ~ballot_of in
  checki "all participate" 20 r.Vote.participants;
  checki "items aggregated" 200 r.Vote.items_total;
  checki "storage aggregated" 2000 r.Vote.storage_total;
  checki "votes partitioned" 20 (r.Vote.yes + r.Vote.no);
  checkb "majority approves" true (Vote.approved r ~quorum:0.5);
  checkb "unanimity fails" true (not (Vote.approved r ~quorum:0.99))

let test_vote_derive_d_max () =
  let r =
    {
      Vote.participants = 10;
      yes = 10;
      no = 0;
      storage_total = 0;
      items_total = 100;
      traversals = 0;
    }
  in
  (* d_avg = 10, n_min = 5: d_max = 10 * 5 * 2 = 100. *)
  checki "paper parameter rule" 100 (Vote.derive_d_max r ~n_min:5)

(* run_until processes strictly-before events only: anything scheduled
   exactly at [time] stays queued, whatever the mix of delays. *)
let qcheck_run_until_boundary =
  QCheck.Test.make ~name:"run_until excludes events at the boundary" ~count:200
    QCheck.(list (int_bound 10))
    (fun delays ->
      let sim = Sim.create () in
      let boundary = 5. in
      let fired = ref [] in
      List.iter
        (fun d ->
          let d = float_of_int d in
          Sim.schedule sim ~delay:d (fun () -> fired := d :: !fired))
        delays;
      Sim.run_until sim ~time:boundary;
      let expect_fired = List.filter (fun d -> float_of_int d < boundary) delays in
      List.length !fired = List.length expect_fired
      && Sim.pending sim = List.length delays - List.length expect_fired
      && Sim.now sim = boundary
      && List.for_all (fun d -> d < boundary) !fired)

(* Heap pops are a stable sort: ascending time, scheduling order within
   equal timestamps.  int_bound 3 forces heavy timestamp collisions. *)
let qcheck_equal_time_fifo =
  QCheck.Test.make ~name:"equal timestamps pop in scheduling order" ~count:200
    QCheck.(list (int_bound 3))
    (fun delays ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iteri
        (fun i d ->
          Sim.schedule sim ~delay:(float_of_int d) (fun () ->
              fired := (d, i) :: !fired))
        delays;
      Sim.run sim;
      let expected =
        List.mapi (fun i d -> (d, i)) delays
        |> List.stable_sort (fun (d1, _) (d2, _) -> compare d1 d2)
      in
      List.rev !fired = expected)

(* 100k mixed schedule_at / pop interleavings: coarse integer times force
   heavy timestamp collisions, and interleaved [run_until] calls pop from
   the heap while it is still being filled.  Every event must fire in
   lexicographic (time, scheduling-sequence) order and none may be lost —
   the invariant the parallel-array heap must uphold through grow,
   sift_up and sift_down at realistic scale. *)
let qcheck_heap_order_at_scale =
  QCheck.Test.make ~name:"100k schedule_at/pop interleavings fire in (time, seq) order"
    ~count:3 QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let sim = Sim.create () in
      let fired = ref [] in
      let scheduled = ref 0 in
      for _ = 1 to 100_000 do
        if Rng.int rng 10 < 8 then begin
          let id = !scheduled in
          incr scheduled;
          let time = Sim.now sim +. float_of_int (Rng.int rng 32) in
          Sim.schedule_at sim ~time (fun () -> fired := (Sim.now sim, id) :: !fired)
        end
        else Sim.run_until sim ~time:(Sim.now sim +. 1.5)
      done;
      Sim.run sim;
      let events = List.rev !fired in
      let rec ordered = function
        | (t1, s1) :: ((t2, s2) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && s1 < s2)) && ordered rest
        | _ -> true
      in
      List.length events = !scheduled
      && Sim.processed sim = !scheduled
      && ordered events)

(* Equal-timestamp FIFO at large size: [qcheck_equal_time_fifo] above
   checks the invariant on small heaps; this drives 100k ties through
   the grown heap, where sift_down takes deep paths. *)
let qcheck_equal_time_fifo_large =
  QCheck.Test.make ~name:"equal-timestamp FIFO holds at 100k events" ~count:3
    QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let sim = Sim.create () in
      let n = 100_000 in
      let fired = ref [] in
      (* A handful of distinct times, so each carries ~tens of thousands
         of tied events. *)
      for i = 0 to n - 1 do
        Sim.schedule sim
          ~delay:(float_of_int (Rng.int rng 4))
          (fun () -> fired := i :: !fired)
      done;
      Sim.run sim;
      let events = Array.of_list (List.rev !fired) in
      let by_time = Hashtbl.create 4 in
      (* Tied events must appear in scheduling order: within the fire
         sequence, each event's index must exceed the last one seen for
         its timestamp.  Timestamps can be recovered from the schedule:
         event [i]'s delay was the [i]-th draw. *)
      let rng' = Rng.create ~seed in
      let delays = Array.init n (fun _ -> Rng.int rng' 4) in
      Array.length events = n
      && Array.for_all
           (fun i ->
             let d = delays.(i) in
             let last = Option.value ~default:(-1) (Hashtbl.find_opt by_time d) in
             Hashtbl.replace by_time d i;
             i > last)
           events)

(* Timers against a reference model: random interleavings of
   [schedule], [timer], timers whose callback cancels an earlier handle,
   [cancel] of any handle ever made (live, fired or already cancelled)
   and [run_until].  The model keeps the pending events as a list sorted
   by (time, scheduling order).  Coarse integer delays force ties.  After
   every step the pending counts agree; a cancel of a handle the model no
   longer holds must leave the queue as it was; at the end the firing
   orders agree, no cancelled timer fired and [processed] counts exactly
   the events that ran. *)
let qcheck_timer_model =
  QCheck.Test.make ~name:"timers and cancels match a sorted-list model" ~count:500
    ~long_factor:20
    QCheck.(list (triple (int_bound 4) (int_bound 6) small_nat))
    (fun ops ->
      let sim = Sim.create () in
      let ok = ref true in
      let check b = if not b then ok := false in
      let fired = ref [] in
      (* Model: pending (time, order, label, label to cancel) sorted. *)
      let queue = ref [] and clock = ref 0. and order = ref 0 in
      let model_fired = ref [] and cancelled = ref [] in
      (* Every timer handle made so far, newest first, with its label. *)
      let handles = ref [] and n_handles = ref 0 in
      let nth k = List.nth !handles (!n_handles - 1 - (k mod !n_handles)) in
      let model_cancel label =
        if List.exists (fun (_, _, l, _) -> l = label) !queue then begin
          queue := List.filter (fun (_, _, l, _) -> l <> label) !queue;
          cancelled := label :: !cancelled
        end
      in
      let model_add time victim =
        let label = !order in
        incr order;
        queue := List.sort compare ((time, label, label, victim) :: !queue);
        label
      in
      let model_run_until until =
        let rec go () =
          match !queue with
          | (time, _, label, victim) :: rest when time < until ->
            queue := rest;
            clock := time;
            model_fired := label :: !model_fired;
            Option.iter model_cancel victim;
            go ()
          | _ -> ()
        in
        go ();
        clock := Float.max !clock until
      in
      List.iter
        (fun (kind, d, k) ->
          let delay = float_of_int d in
          (match kind with
          | 0 ->
            let label = model_add (!clock +. delay) None in
            Sim.schedule sim ~delay (fun () -> fired := label :: !fired)
          | 1 | 2 ->
            let victim = if kind = 2 && !n_handles > 0 then Some (nth k) else None in
            let label = model_add (!clock +. delay) (Option.map snd victim) in
            let h =
              Sim.timer sim ~delay (fun () ->
                  fired := label :: !fired;
                  Option.iter (fun (h, _) -> Sim.cancel sim h) victim)
            in
            handles := (h, label) :: !handles;
            incr n_handles
          | 3 when !n_handles > 0 ->
            let h, label = nth k in
            let live = List.exists (fun (_, _, l, _) -> l = label) !queue in
            let before = Sim.pending sim in
            Sim.cancel sim h;
            model_cancel label;
            if not live then check (Sim.pending sim = before)
          | 3 -> ()
          | _ ->
            let until = Sim.now sim +. (0.5 *. delay) in
            model_run_until until;
            Sim.run_until sim ~time:until);
          check (Sim.pending sim = List.length !queue);
          check (Sim.now sim = !clock))
        ops;
      Sim.run sim;
      model_run_until Float.infinity;
      !ok
      && List.rev !fired = List.rev !model_fired
      && List.for_all (fun l -> not (List.mem l !fired)) !cancelled
      && Sim.processed sim = List.length !fired
      && Sim.pending sim = 0)

(* Cancelling most of a large heap's timers from inside callbacks and
   from outside: what is left fires in (time, seq) order and nothing
   cancelled fires.  This drives remove-at-slot through deep sifts in
   both directions on a grown heap. *)
let qcheck_timer_cancel_at_scale =
  QCheck.Test.make ~name:"20k timers, 90% cancelled, rest fire in order" ~count:3
    ~long_factor:10
    QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let sim = Sim.create () in
      let n = 20_000 in
      let fired = ref [] in
      let dead = Array.make n false in
      let handles =
        Array.init n (fun i ->
            if i mod 4 = 0 then begin
              Sim.schedule sim ~delay:(float_of_int (Rng.int rng 64)) (fun () ->
                  fired := (Sim.now sim, i) :: !fired);
              Sim.no_timer
            end
            else
              Sim.timer sim ~delay:(float_of_int (Rng.int rng 64)) (fun () ->
                  fired := (Sim.now sim, i) :: !fired))
      in
      Array.iteri
        (fun i h ->
          if i mod 4 <> 0 && Rng.int rng 10 < 9 then begin
            dead.(i) <- true;
            Sim.cancel sim h
          end)
        handles;
      Sim.run sim;
      let events = List.rev !fired in
      let rec ordered = function
        | (t1, s1) :: ((t2, s2) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && s1 < s2)) && ordered rest
        | _ -> true
      in
      let live = Array.fold_left (fun c d -> if d then c else c + 1) 0 dead in
      ordered events
      && List.length events = live
      && List.for_all (fun (_, i) -> not dead.(i)) events)

(* --- Churn properties ---------------------------------------------------- *)

(* Replay a churn installation and collect, per node, the timestamped
   online/offline transitions in order. *)
let churn_trace ~seed ~nodes params =
  let sim = Sim.create () in
  let rng = Rng.create ~seed in
  let online = Array.make nodes true in
  let trace = Array.make nodes [] in
  Churn.install sim rng params
    ~node_ids:(List.init nodes (fun i -> i))
    ~set_online:(fun i v ->
      online.(i) <- v;
      trace.(i) <- (Sim.now sim, v) :: trace.(i));
  Sim.run sim;
  (online, Array.map List.rev trace)

let churn_gen =
  QCheck.(
    map
      (fun (seed, (a, b, c, d)) ->
        (* Sample.uniform needs lo < hi strictly, so spans are >= 1. *)
        let off_min = 1. +. float_of_int a in
        let off_max = off_min +. 1. +. float_of_int b in
        let period_min = 5. +. float_of_int c in
        let period_max = period_min +. 1. +. float_of_int d in
        ( seed,
          {
            Churn.start = 0.;
            stop = 8. *. period_max;
            off_min;
            off_max;
            period_min;
            period_max;
          } ))
      (pair small_signed_int
         (quad (int_bound 9) (int_bound 9) (int_bound 9) (int_bound 9))))

let eps = 1e-9

let qcheck_churn_ends_online =
  QCheck.Test.make ~name:"churn: every node is back online after stop" ~count:100
    churn_gen (fun (seed, params) ->
      let online, trace = churn_trace ~seed ~nodes:6 params in
      Array.for_all (fun v -> v) online
      && Array.for_all
           (fun tr -> match List.rev tr with [] -> true | (_, v) :: _ -> v)
           trace)

let qcheck_churn_offline_durations =
  QCheck.Test.make
    ~name:"churn: offline durations fall within [off_min, off_max]" ~count:100
    churn_gen (fun (seed, params) ->
      let _, trace = churn_trace ~seed ~nodes:6 params in
      Array.for_all
        (fun tr ->
          (* Transitions alternate offline/online; pair them up. *)
          let rec ok = function
            | (t_off, false) :: (t_on, true) :: rest ->
              let d = t_on -. t_off in
              d >= params.Churn.off_min -. eps
              && d <= params.Churn.off_max +. eps
              && ok rest
            | [] -> true
            | _ -> false
          in
          ok tr)
        trace)

let qcheck_churn_cycle_periods =
  QCheck.Test.make
    ~name:"churn: cycle periods fall within [period_min, period_max]" ~count:100
    churn_gen (fun (seed, params) ->
      let _, trace = churn_trace ~seed ~nodes:6 params in
      Array.for_all
        (fun tr ->
          (* Each offline onset sits one period after the previous cycle's
             end (the return online), or after [start] for the first. *)
          let rec ok prev_end = function
            | (t_off, false) :: (t_on, true) :: rest ->
              let p = t_off -. prev_end in
              p >= params.Churn.period_min -. eps
              && p <= params.Churn.period_max +. eps
              && ok t_on rest
            | [] -> true
            | _ -> false
          in
          ok params.Churn.start tr)
        trace)

let qcheck_net_engine_determinism =
  QCheck.Test.make ~name:"construction runs are seed-deterministic" ~count:4
    QCheck.small_signed_int (fun seed ->
      let run () =
        let rng = Rng.create ~seed in
        let o =
          Pgrid_construction.Round.run rng
            (Pgrid_construction.Round.default_params ~peers:48)
            ~spec:Pgrid_workload.Distribution.Uniform
        in
        (o.Pgrid_construction.Round.deviation, o.Pgrid_construction.Round.interactions)
      in
      run () = run ())

let suite =
  [
    Alcotest.test_case "event order" `Quick test_sim_order;
    Alcotest.test_case "tie break FIFO" `Quick test_sim_tie_break;
    Alcotest.test_case "clock" `Quick test_sim_clock;
    Alcotest.test_case "run_until boundary" `Quick test_sim_run_until;
    Alcotest.test_case "nested scheduling" `Quick test_sim_nested_schedule;
    Alcotest.test_case "negative delay" `Quick test_sim_negative_delay;
    Alcotest.test_case "schedule rejects NaN delay" `Quick test_sim_schedule_nan;
    Alcotest.test_case "schedule_at rejects NaN time" `Quick test_sim_schedule_at_nan;
    Alcotest.test_case "run_until rejects NaN time" `Quick test_sim_run_until_nan;
    Alcotest.test_case "timer rejects NaN delay" `Quick test_sim_timer_nan;
    Alcotest.test_case "net rejects NaN parameters" `Quick test_net_rejects_nan;
    Alcotest.test_case "many events" `Quick test_sim_many_events;
    Alcotest.test_case "running events allocates nothing" `Quick
      test_sim_run_allocates_nothing;
    Alcotest.test_case "every: first at, then period after each run" `Quick
      test_every_schedule;
    Alcotest.test_case "every: nothing at or after until" `Quick test_every_until;
    Alcotest.test_case "every: period called after f" `Quick test_every_period_after_f;
    Alcotest.test_case "every: ties keep scheduling order" `Quick test_every_ties;
    Alcotest.test_case "every: rejects NaN at, bad period" `Quick test_every_rejects;
    Alcotest.test_case "fixed latency" `Quick test_latency_fixed;
    Alcotest.test_case "latency floor" `Quick test_latency_floor;
    Alcotest.test_case "planetlab model" `Quick test_latency_planetlab_positive;
    Alcotest.test_case "net delivery" `Quick test_net_delivery;
    Alcotest.test_case "net offline drop" `Quick test_net_offline_drop;
    Alcotest.test_case "net loss" `Quick test_net_loss;
    Alcotest.test_case "net bandwidth buckets" `Quick test_net_bandwidth_accounting;
    Alcotest.test_case "net online count" `Quick test_net_online_count;
    Alcotest.test_case "service drain rate" `Quick test_service_drain_rate;
    Alcotest.test_case "service sheds at capacity" `Quick test_service_sheds_at_capacity;
    Alcotest.test_case "service priority classes" `Quick test_service_priority_classes;
    Alcotest.test_case "service offline burns slot" `Quick test_service_offline_burns_slot;
    Alcotest.test_case "service shed event" `Quick test_service_shed_event;
    Alcotest.test_case "account default tags" `Quick test_net_account_default_tags;
    Alcotest.test_case "offline source events" `Quick test_net_offline_source_events;
    Alcotest.test_case "breaker opens after k" `Quick test_breaker_opens_after_k;
    Alcotest.test_case "breaker success resets" `Quick test_breaker_success_resets_count;
    Alcotest.test_case "breaker half-open probe" `Quick test_breaker_half_open_probe;
    Alcotest.test_case "breaker half-open reopen" `Quick test_breaker_half_open_reopen;
    Alcotest.test_case "breaker abandoned probe" `Quick test_breaker_abandon_probe;
    Alcotest.test_case "breaker events" `Quick test_breaker_events;
    Alcotest.test_case "unstructured degree" `Quick test_unstructured_degree;
    Alcotest.test_case "unstructured symmetric" `Quick test_unstructured_symmetric;
    Alcotest.test_case "walk reaches online" `Quick test_random_walk_reaches_online;
    Alcotest.test_case "walk isolated" `Quick test_random_walk_isolated;
    Alcotest.test_case "walk spreads" `Quick test_random_walk_spread;
    Alcotest.test_case "flood reaches all" `Quick test_flood_reaches_all;
    Alcotest.test_case "flood ttl" `Quick test_flood_ttl_limits;
    Alcotest.test_case "flood offline start" `Quick test_flood_offline_start;
    Alcotest.test_case "churn cycles" `Quick test_churn_cycles;
    Alcotest.test_case "churn goes offline" `Quick test_churn_offline_periods;
    Alcotest.test_case "churn clamp recovery" `Quick test_churn_clamp_recovery;
    Alcotest.test_case "vote aggregation" `Quick test_vote_aggregation;
    Alcotest.test_case "vote parameter rule" `Quick test_vote_derive_d_max;
    QCheck_alcotest.to_alcotest qcheck_run_until_boundary;
    QCheck_alcotest.to_alcotest qcheck_equal_time_fifo;
    QCheck_alcotest.to_alcotest qcheck_heap_order_at_scale;
    QCheck_alcotest.to_alcotest qcheck_equal_time_fifo_large;
    QCheck_alcotest.to_alcotest qcheck_timer_model;
    QCheck_alcotest.to_alcotest qcheck_timer_cancel_at_scale;
    QCheck_alcotest.to_alcotest qcheck_churn_ends_online;
    QCheck_alcotest.to_alcotest qcheck_churn_offline_durations;
    QCheck_alcotest.to_alcotest qcheck_churn_cycle_periods;
    QCheck_alcotest.to_alcotest qcheck_net_engine_determinism;
  ]
