(* Scale benchmark: fig6-style construction throughput and raw simulator
   event throughput at growing population sizes.

   Two numbers per size, each bracketed by [Gc.quick_stat] so the report
   also carries allocation totals (minor/promoted words are exact counts
   for a fixed seed and binary, so they gate regressions even across
   machines where wall-clock numbers cannot):

   - construction: [Round.run] over a Uniform workload, reported as
     peers/second, plus the resulting load-balance deviation as a
     correctness tripwire (a "fast" build that degenerates is not a win);
   - simulation: a relay storm over [Net]/[Sim] (every delivery forwards
     the hop counter to the next node until it expires), reported as
     events/second via [Sim.processed]. *)

module Rng = Pgrid_prng.Rng
module Distribution = Pgrid_workload.Distribution
module Round = Pgrid_construction.Round
module Sim = Pgrid_simnet.Sim
module Net = Pgrid_simnet.Net
module Latency = Pgrid_simnet.Latency
module Table = Pgrid_stats.Table
module Experiment = Pgrid_experiment.Experiment

type row = {
  peers : int;
  build_seconds : float;
  peers_per_second : float;
  rounds : int;
  interactions_per_peer : float;
  deviation : float;
  build_minor_words : float;
  build_promoted_words : float;
  events : int;
  events_per_second : float;
  sim_minor_words : float;
  sim_promoted_words : float;
}

let default_sizes = [ 1_000; 10_000; 100_000 ]

(* Overridden by bench/main.ml's --scale-peers flag. *)
let sizes = ref default_sizes

(* [measure f] is [f ()] plus wall-clock seconds and the minor/promoted
   word deltas it allocated.  The full major collection beforehand keeps
   the deltas about [f] alone, not about garbage a previous size left
   behind. *)
let measure f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let seconds = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  ( result,
    seconds,
    s1.Gc.minor_words -. s0.Gc.minor_words,
    s1.Gc.promoted_words -. s0.Gc.promoted_words )

let construction ~seed n =
  let rng = Rng.create ~seed in
  let params = Round.default_params ~peers:n in
  measure (fun () -> Round.run rng params ~spec:Distribution.Uniform)

(* Relay storm: [chains] concurrent messages, each forwarded [hops]
   times around the ring.  Payloads are immediate ints, so the measured
   allocation is the event loop's own, not the workload's. *)
let event_storm ~seed n =
  let chains = max 8 (n / 10) in
  let hops = 64 in
  let rng = Rng.create ~seed in
  let sim = Sim.create () in
  let net =
    Net.create sim rng ~nodes:n ~latency:(Latency.Fixed 0.05) ~loss:0. ~bucket:60.
  in
  Net.set_handler net (fun dst remaining ->
      if remaining > 0 then
        Net.send net ~src:dst ~dst:((dst + 1) mod n) ~bytes:64 ~kind:Net.Query
          (remaining - 1));
  let (), seconds, minor, promoted =
    measure (fun () ->
        for c = 0 to chains - 1 do
          Net.send net ~src:(c mod n) ~dst:((c + 1) mod n) ~bytes:64 ~kind:Net.Query
            hops
        done;
        Sim.run sim)
  in
  (Sim.processed sim, seconds, minor, promoted)

let run_size ~seed n =
  (* Reduce the outcome to scalars before the storm runs, so the
     constructed overlay (hundreds of MB at 100k) is dead by then and
     the storm's GC work reflects the event loop, not the build. *)
  let build_seconds, build_minor, build_promoted, rounds, interactions_per_peer,
      deviation =
    let outcome, seconds, minor, promoted = construction ~seed n in
    ( seconds,
      minor,
      promoted,
      outcome.Round.rounds,
      Round.interactions_per_peer outcome,
      outcome.Round.deviation )
  in
  let events, sim_seconds, sim_minor, sim_promoted = event_storm ~seed n in
  {
    peers = n;
    build_seconds;
    peers_per_second = float_of_int n /. Float.max build_seconds 1e-9;
    rounds;
    interactions_per_peer;
    deviation;
    build_minor_words = build_minor;
    build_promoted_words = build_promoted;
    events;
    events_per_second = float_of_int events /. Float.max sim_seconds 1e-9;
    sim_minor_words = sim_minor;
    sim_promoted_words = sim_promoted;
  }

(* One run per invocation: the rows feed both the printed table and the
   JSON report values, so compute them once. *)
let cache : row list ref = ref []

let rows ~seed =
  if !cache = [] then
    cache := List.map (fun n -> run_size ~seed n) !sizes;
  !cache

let print ~seed =
  let f = Table.fmt_float in
  let table_rows =
    List.map
      (fun r ->
        [
          string_of_int r.peers;
          f ~decimals:2 r.build_seconds;
          f ~decimals:0 r.peers_per_second;
          string_of_int r.rounds;
          f ~decimals:1 r.interactions_per_peer;
          f ~decimals:3 r.deviation;
          f ~decimals:0 (r.build_minor_words /. 1e6);
          f ~decimals:0 (r.build_promoted_words /. 1e6);
          string_of_int r.events;
          f ~decimals:0 r.events_per_second;
          f ~decimals:1 (r.sim_minor_words /. 1e6);
        ])
      (rows ~seed)
  in
  Table.print ~title:"construction and event-loop throughput vs population"
    ~columns:
      [
        "peers"; "build s"; "peers/s"; "rounds"; "inter/peer"; "deviation";
        "minor Mw"; "promoted Mw"; "events"; "events/s"; "sim minor Mw";
      ]
    ~rows:table_rows

(* Flattened metric values for the pgrid-bench/1 report.  Throughput
   improves up; allocation totals and deviation improve down. *)
let values ~seed =
  List.concat_map
    (fun r ->
      let v name value dir = (Printf.sprintf "n=%d/%s" r.peers name, value, dir) in
      [
        v "peers_per_second" r.peers_per_second Experiment.Up;
        v "build_minor_words" r.build_minor_words Experiment.Down;
        v "build_promoted_words" r.build_promoted_words Experiment.Down;
        v "deviation" r.deviation Experiment.Down;
        v "events_per_second" r.events_per_second Experiment.Up;
        v "sim_minor_words" r.sim_minor_words Experiment.Down;
        v "sim_promoted_words" r.sim_promoted_words Experiment.Down;
      ])
    (rows ~seed)
