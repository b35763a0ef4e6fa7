(* The benchmark's single definition of its workloads and metrics.
   BENCHMARK.json at the repository root is rendered from this module
   ([pgrid_perf catalogue]) and the smoke test fails when the two
   disagree, so a metric is named, unitized and bounded in one place. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only: allowed worsening *)
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let workloads =
  [
    ( "build",
      "the paper's construction, Round.run_with_keys on seven 6k-peer inputs after \
       a warm-up one, each audited by 50k uncached Engine.lookup calls: pure \
       routing, which a cache change must not move" );
    ( "lookup-zipf",
      "2M Zipf-1.1 lookups on a 5k-peer overlay with a 512/512 Qcache emptied \
       every 500k: hot keys, so the cache answers most lookups" );
    ( "write-mix",
      "80% cached Zipf lookups, 15% routed Pareto inserts, 5% routed deletes, \
       inline Balance.pass and Reconcile.sync_pair: writes invalidate the cache" );
    ( "simnet-storm",
      "open-loop Poisson lookups at 200/s over Net with PlanetLab latency and 2% \
       loss through Storm: Sim heap, Net accounting, timeouts and retries; no \
       construction or cache" );
  ]

(* Every workload reports every end-to-end metric; see README.md for how
   each is defined on each workload. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "ops_per_s" "1/s" Higher 0.25;
    e2e "op_p50_us" "us" Lower 0.25;
    e2e "op_p90_us" "us" Lower 0.25;
    e2e "hops_mean" "count" Lower 0.05;
    e2e "heap_peak_mb" "MB" Lower 0.25;
    e2e "deviation" "ratio" Lower 0.10;
    e2e "load_p99_ratio" "ratio" Lower 0.25;
  ]

(* A traced run reports every per-layer metric; a layer the workload does
   not exercise reads 0. *)
let per_layer =
  [
    layer "construction.interact_us" "us" Lower;
    layer "construction.interact_p99_us" "us" Lower;
    layer "construction.interactions_per_peer" "count" Lower;
    layer "construction.useful_ratio" "ratio" Higher;
    layer "construction.refer_steps_per_interaction" "count" Lower;
    layer "construction.keys_moved_per_peer" "count" Lower;
    layer "construction.replication_s" "s" Lower;
    layer "construction.rounds" "count" Lower;
    layer "reference.compute_s" "s" Lower;
    layer "deviation.of_overlay_s" "s" Lower;
    layer "overlay.forward_ns" "ns" Lower;
    layer "query.lookup_us" "us" Lower;
    layer "query.hops_per_lookup" "count" Lower;
    layer "query.ns_per_hop" "ns" Lower;
    layer "qcache.probe_ns" "ns" Lower;
    layer "qcache.learn_ns" "ns" Lower;
    layer "qcache.probes_per_lookup" "count" Lower;
    layer "qcache.hit_ratio" "ratio" Higher;
    layer "qcache.evictions" "count" Lower;
    layer "qcache.entries" "count" Lower;
    layer "qcache.stale_per_1k_lookups" "count" Lower;
    layer "qcache.invalidations_per_write" "count" Lower;
    layer "overlay.insert_us" "us" Lower;
    layer "overlay.delete_us" "us" Lower;
    layer "balance.pass_ms" "ms" Lower;
    layer "balance.splits" "count" Lower;
    layer "balance.retracts" "count" Lower;
    layer "balance.migrated_keys" "count" Lower;
    layer "reconcile.sync_us" "us" Lower;
    layer "reconcile.copied_per_sync" "count" Lower;
    layer "reconcile.tombstoned_per_sync" "count" Lower;
    layer "sim.events_per_s" "1/s" Higher;
    layer "sim.events_per_lookup" "count" Lower;
    layer "simnet.relay_event_ns" "ns" Lower;
    layer "net.messages_per_lookup" "count" Lower;
    layer "net.drop_ratio" "ratio" Lower;
    layer "storm.event_ns" "ns" Lower;
    layer "storm.timeouts_per_lookup" "count" Lower;
    layer "storm.retries_per_lookup" "count" Lower;
    layer "gc.minor_words_per_op" "words" Lower;
    layer "gc.promoted_words_per_op" "words" Lower;
    layer "gc.major_collections" "count" Lower;
    layer "setup.build_s" "s" Lower;
    layer "setup.closure_s" "s" Lower;
    layer "setup.trace_s" "s" Lower;
    layer "trace.overhead_pct" "%" Lower;
    layer "trace.self_cover_pct" "%" Higher;
  ]

let find name =
  List.find (fun m -> m.name = name) (end_to_end @ per_layer)

let run_seconds = 20

(* BENCHMARK.json, byte for byte. *)
let benchmark_json () =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let q s = "\"" ^ String.escaped s ^ "\"" in
  let better m = match m.better with Lower -> "lower" | Higher -> "higher" in
  let list render items =
    List.iteri
      (fun i x ->
        add "    ";
        add (render x);
        add (if i = List.length items - 1 then "\n" else ",\n"))
      items
  in
  add "{\n";
  add "  \"command\": [\"python3\", \"perf/run.py\"],\n";
  add "  \"paths\": [\"perf\"],\n";
  add (Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds);
  add "  \"workloads\": [\n";
  list (fun (n, why) -> Printf.sprintf "{\"name\": %s, \"why\": %s}" (q n) (q why)) workloads;
  add "  ],\n  \"end_to_end\": [\n";
  list
    (fun m ->
      Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %.2f}"
        (q m.name) (q m.unit_) (q (better m))
        (Option.get m.bound))
    end_to_end;
  add "  ],\n  \"per_layer\": [\n";
  list
    (fun m ->
      Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s}" (q m.name)
        (q m.unit_) (q (better m)))
    per_layer;
  add "  ]\n}\n";
  Buffer.contents b
