(* pgrid_perf: the repository benchmark.

     pgrid_perf run WORKLOAD [--seed N] [--seconds S] [--trace FILE]
     pgrid_perf catalogue          print BENCHMARK.json
     pgrid_perf smoke FILE         toy-size self-check against FILE

   [run] prints one "name value unit" line per metric and, as its last
   line, one JSON object {correct, attempted, failed, metrics}.  Without
   --trace the metrics are the end-to-end ones, measured with tracing off;
   with --trace they are the per-layer ones, from a traced run whose spans
   are written to FILE as JSON Lines. *)

module W = Workloads

let default_seed = 20050830

(* A run sets up at least [min_setups] times and until the set-ups have
   taken [min_setup_s] in all, at most [max_setups] times.  A process that
   starts after the machine idled runs slower for up to a second, which
   would move the median of a short set-up's repetitions if they all fell
   in that second. *)
let min_setups = 3
let min_setup_s = 3.0
let max_setups = 40

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** catalogue order *)
  measured : W.measured;
  notes : string list;  (** printed as comment lines before the metrics *)
}

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let plain_ctx seed =
  { W.seed; spans = Spans.create ~on:false ~keep:0; tel = Pgrid_telemetry.Telemetry.disabled }

(* Set up repeatedly (the median is [setup_s]; only the last state is
   kept), then run the measured phase with tracing off. *)
let run_plain (w : W.workload) sz ~seed ~min_setups ~min_setup_s =
  let ctx = plain_ctx seed in
  let measure = ref None and setup = ref [] in
  while
    List.length !setup < min_setups
    || (List.fold_left ( +. ) 0. !setup < min_setup_s && List.length !setup < max_setups)
  do
    measure := None;
    Gc.compact ();
    let t0 = Spans.now_ns () in
    let m = w.W.prepare ctx sz in
    setup := (float_of_int (Spans.now_ns () - t0) /. 1e9) :: !setup;
    measure := Some m
  done;
  Gc.full_major ();
  let m = (Option.get !measure) () in
  let percentile q = W.Samples.chunked_percentile m.W.latency_us ~chunks:m.W.latency_chunks q in
  let value = function
    | "setup_s" -> W.median (Array.of_list !setup)
    | "ops_per_s" -> W.quantile m.W.rates (1. -. W.faster_quartile)
    | "op_p50_us" -> percentile 0.50
    | "op_p90_us" -> percentile 0.90
    | "hops_mean" -> m.W.hops_mean
    | "heap_peak_mb" -> heap_peak_mb ()
    | "deviation" -> m.W.deviation
    | "load_p99_ratio" -> m.W.load_p99_ratio
    | other -> failwith ("no end-to-end value for " ^ other)
  in
  let metrics = List.map (fun c -> (c.Catalogue.name, value c.Catalogue.name)) Catalogue.end_to_end in
  {
    correct = m.W.failed = 0;
    attempted = m.W.attempted;
    failed = m.W.failed;
    metrics;
    measured = m;
    notes = [];
  }

(* Traced run: one untraced measured phase on a fresh set-up gives the
   reference wall time, then a second set-up of the same inputs runs
   traced.  Per-layer self times must cover the traced wall time to
   within 10%. *)
let run_traced (w : W.workload) sz ~seed ~trace_file =
  let reference =
    let ctx = plain_ctx seed in
    let measure = w.W.prepare ctx sz in
    Gc.full_major ();
    (measure ()).W.wall_ns
  in
  Gc.compact ();
  let sp = Spans.create ~on:true ~keep:50_000 in
  let tel = Pgrid_telemetry.Telemetry.create ~clock:(fun () -> 0.) () in
  let ctx = { W.seed; spans = sp; tel } in
  let t0 = Spans.now_ns () in
  let measure = w.W.prepare ctx sz in
  let t1 = Spans.now_ns () in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t2 = Spans.now_ns () in
  let m = measure () in
  let wall = t1 - t0 + (Spans.now_ns () - t2) in
  let g1 = Gc.quick_stat () in
  let self = Spans.self_by_layer sp in
  let covered = List.fold_left (fun acc (_, ns) -> acc + ns) 0 self in
  let cover_pct = 100. *. float_of_int covered /. float_of_int wall in
  let per_op x = x /. float_of_int (max 1 m.W.ops) in
  let secs s = float_of_int (Spans.total_ns sp s) /. 1e9 in
  let generic =
    [
      ("gc.minor_words_per_op", per_op (g1.Gc.minor_words -. g0.Gc.minor_words));
      ("gc.promoted_words_per_op", per_op (g1.Gc.promoted_words -. g0.Gc.promoted_words));
      ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("setup.build_s", secs "setup.build");
      ("setup.closure_s", secs "setup.closure");
      ("setup.trace_s", secs "setup.trace");
      ( "trace.overhead_pct",
        100. *. ((float_of_int m.W.wall_ns /. float_of_int (max 1 reference)) -. 1.) );
      ("trace.self_cover_pct", cover_pct);
    ]
  in
  let known = m.W.layer @ generic in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun c -> c.Catalogue.name = name) Catalogue.per_layer) then
        failwith ("per-layer metric missing from the catalogue: " ^ name))
    known;
  let metrics =
    List.map
      (fun c ->
        (c.Catalogue.name, Option.value ~default:0. (List.assoc_opt c.Catalogue.name known)))
      Catalogue.per_layer
  in
  Option.iter (Spans.write_jsonl sp) trace_file;
  let notes =
    Printf.sprintf "self time by layer, traced wall %.3f s" (float_of_int wall /. 1e9)
    :: List.map
         (fun (l, ns) ->
           Printf.sprintf "  %-14s %10.3f s %6.1f%%" l (float_of_int ns /. 1e9)
             (100. *. float_of_int ns /. float_of_int wall))
         self
  in
  {
    correct = m.W.failed = 0 && Float.abs (cover_pct -. 100.) <= 10.;
    attempted = m.W.attempted;
    failed = m.W.failed;
    metrics;
    measured = m;
    notes;
  }

let json_of o =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    o.correct o.attempted o.failed;
  List.iteri
    (fun i (name, v) ->
      let c = Catalogue.find name in
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ") name v c.Catalogue.unit_)
    o.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let finite o = List.for_all (fun (_, v) -> Float.is_finite v) o.metrics

let run ~workload ~seed ~seconds ~trace_file =
  match W.find workload with
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" workload
      (String.concat ", " (List.map (fun w -> w.W.name) W.all));
    exit 2
  | Some w ->
    Printf.printf "# %s seed %d seconds %d %s\n" workload seed seconds
      (if trace_file = None then "end-to-end" else "per-layer (traced)");
    let o =
      match trace_file with
      | None -> run_plain w (W.sizes ~seconds) ~seed ~min_setups ~min_setup_s
      | Some _ ->
        (* The traced run measures twice (untraced reference, then
           traced), each on half the work, to keep to the same time. *)
        run_traced w (W.sizes ~seconds:(max 1 (seconds / 2))) ~seed ~trace_file
    in
    if workload = "simnet-storm" then
      print_endline "# op latency is simulated time from arrival; the generator is never late";
    List.iter (fun l -> print_endline ("# " ^ l)) o.notes;
    List.iter
      (fun (name, v) ->
        Printf.printf "%-40s %16.6f %s\n" name v (Catalogue.find name).Catalogue.unit_)
      o.metrics;
    let o = { o with correct = o.correct && finite o } in
    print_endline (json_of o);
    if not o.correct then exit 1

(* --- smoke test ---------------------------------------------------------- *)

let smoke bench_file =
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt in
  let text = In_channel.with_open_bin bench_file In_channel.input_all in
  if text <> Catalogue.benchmark_json () then
    fail "%s differs from `pgrid_perf catalogue`" bench_file;
  let seed = default_seed in
  List.iter
    (fun (w : W.workload) ->
      let a = run_plain w W.toy ~seed ~min_setups:1 ~min_setup_s:0. in
      let b = run_plain w W.toy ~seed ~min_setups:1 ~min_setup_s:0. in
      let t = run_traced w W.toy ~seed ~trace_file:None in
      List.iter
        (fun o ->
          if not o.correct then fail "%s: audit failed (%d of %d)" w.W.name o.failed o.attempted;
          if not (finite o) then fail "%s: non-finite metric" w.W.name)
        [ a; b; t ];
      List.iter
        (fun (name, v) -> if v <= 0. then fail "%s: %s is %g" w.W.name name v)
        a.metrics;
      (* Seed-deterministic metrics agree across same-seed runs, and the
         traced build (Round.run_with_keys decomposed) matches the real one. *)
      let det o =
        let m = o.measured in
        let sim =
          if w.W.name = "simnet-storm" then
            [ W.Samples.percentile m.W.latency_us 0.5; W.Samples.percentile m.W.latency_us 0.90 ]
          else []
        in
        [ m.W.hops_mean; m.W.deviation; m.W.load_p99_ratio; float_of_int m.W.failed ] @ sim
      in
      if det a <> det b || det a <> det t then fail "%s: same seed, different results" w.W.name)
    W.all

let usage () =
  prerr_endline
    "usage: pgrid_perf run WORKLOAD [--seed N] [--seconds S] [--trace FILE]\n\
    \       pgrid_perf catalogue\n\
    \       pgrid_perf smoke BENCHMARK.json";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: workload :: opts ->
    let seed = ref default_seed and seconds = ref Catalogue.run_seconds and trace = ref None in
    let int_arg ~min flag v =
      match int_of_string_opt v with
      | Some n when n >= min -> n
      | _ ->
        Printf.eprintf "%s expects an integer >= %d, got %S\n" flag min v;
        exit 2
    in
    let rec parse = function
      | [] -> ()
      | "--seed" :: v :: rest -> seed := int_arg ~min:0 "--seed" v; parse rest
      | "--seconds" :: v :: rest -> seconds := int_arg ~min:1 "--seconds" v; parse rest
      | "--trace" :: v :: rest -> trace := Some v; parse rest
      | _ -> usage ()
    in
    parse opts;
    run ~workload ~seed:!seed ~seconds:!seconds ~trace_file:!trace
  | [ "catalogue" ] -> print_string (Catalogue.benchmark_json ())
  | [ "smoke"; file ] -> smoke file
  | _ -> usage ()
