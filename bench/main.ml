(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and runs the simulation experiments (see DESIGN.md section
   4 and EXPERIMENTS.md), all read from Pgrid_experiment.Experiment.all,
   plus the bench-only scale and micro targets.

   Usage:
     dune exec bench/main.exe                    -- everything, in order
     dune exec bench/main.exe fig4               -- one artifact
     dune exec bench/main.exe fig6a 10           -- override repetitions
     dune exec bench/main.exe fig6a fig6e micro  -- several artifacts
     dune exec bench/main.exe micro              -- Bechamel micro-benchmarks
     dune exec bench/main.exe check txn balance  -- smoke runs, claims checked

   check runs each named experiment at its smoke size, prints every claim
   with its verdict and exits 1 if any claim fails.
   --smoke runs the simulation experiments at their smoke size.
   --json FILE writes a machine-readable report (wall-clock seconds per
   target, every metric a target reports, Bechamel ns/run for the micro
   kernels) for `bench/compare.exe` to diff against a baseline.
   --quota MS shortens the Bechamel per-kernel time quota (default 500).
   --scale-peers N,N,... sets the scale target's population sizes.
   --trace FILE.jsonl and --metrics (anywhere on the command line) route
   every experiment's telemetry to a JSONL file / a summary table. *)

module Experiment = Pgrid_experiment.Experiment
module Figures = Pgrid_experiment.Figures
module Series = Pgrid_stats.Series
module Table = Pgrid_stats.Table

let seed = 20050830 (* VLDB 2005, Trondheim: August 30 *)
let report : Report.t option ref = ref None
let micro_quota_ms = ref 500.
let smoke = ref false

let banner title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n%!" line title line

let note text = Printf.printf "note: %s\n%!" text

let print_block = function
  | Experiment.Series f -> Series.print f
  | Grid g ->
    print_endline (Figures.fig6_table g);
    print_newline ()
  | Table { title; columns; rows } -> Table.print ~title ~columns ~rows

(* A registry entry: its banner, notes and tables; returns its metrics. *)
let experiment (e : Experiment.t) reps =
  banner e.title;
  List.iter note e.notes;
  let out = e.run ~reps ~smoke:!smoke ~seed in
  List.iter print_block out.blocks;
  out.metrics

let scale _reps =
  banner "Scale -- construction and event-loop throughput vs population";
  note "fig6-style construction (Uniform, default params) at growing sizes";
  note "plus a Net relay storm; peers/s and events/s are the headline numbers";
  Scale.print ~seed;
  Scale.values ~seed

(* --- Bechamel micro-benchmarks of the hot kernels ---------------------- *)

let micro _reps =
  banner "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let rng = Pgrid_prng.Rng.create ~seed in
  let keys =
    Pgrid_workload.Distribution.generate rng Pgrid_workload.Distribution.Uniform
      ~n:2560
  in
  let overlay =
    Pgrid_core.Builder.index rng ~peers:256 ~keys ~d_max:50 ~n_min:5
      ~refs_per_level:2
  in
  let probe_key = keys.(0) in
  let codec_terms =
    [|
      "a"; "term"; "Benchmark"; "distributed"; "overlay-network";
      "capture-recapture-estimation"; "p-grid"; "Indexing";
      "data-oriented"; "zebra"; "Quorum"; "xylophone"; "m"; "range";
      "prefix-routing"; "anti-entropy";
    |]
  in
  (* PRNG and set layers.  The bounds mix the shapes the simnet draws:
     reference counts, peer ids, the 2^30 and max_int extremes. *)
  let shapes = [| 2; 3; 7; 40; 80; 296; 1 lsl 30; max_int |] in
  let bounds = Array.init 64 (fun i -> shapes.(i land 7)) in
  let draws = Array.init 64 Fun.id in
  let rng_ints () =
    for i = 0 to 63 do
      ignore (Sys.opaque_identity (Pgrid_prng.Rng.int rng bounds.(i)))
    done
  in
  (* One union into an emptied set, one adding fresh members (in-place
     back merge), one of a subset (count only): the three paths of
     construction's reference and replica exchanges. *)
  let evens = Pgrid_core.Intset.of_list (List.init 40 (fun i -> 2 * i)) in
  let odds = Pgrid_core.Intset.of_list (List.init 40 (fun i -> (2 * i) + 1)) in
  let union_target = Pgrid_core.Intset.create () in
  let unions () =
    Pgrid_core.Intset.clear union_target;
    Pgrid_core.Intset.union_into ~into:union_target evens;
    Pgrid_core.Intset.union_into ~into:union_target odds;
    Pgrid_core.Intset.union_into ~into:union_target evens
  in
  (* One [Balance.pass] over 2000 peers, the write path's balancing step:
     an index built for [d_max] 50, then 300 inserts into 1% of the key
     space push a few partitions past it.  Building the index takes about
     a second, so it is built once and each run gets a copy.  Bechamel
     gives every run of a sample the same resource, so the resource is a
     shared queue: [allocate] (untimed) adds one fresh copy per run and
     each run takes one. *)
  let balance_cfg = Pgrid_core.Balance.default_config ~d_max:50 ~n_min:1 in
  let balance_template =
    lazy
      (let brng = Pgrid_prng.Rng.create ~seed in
       let keys =
         Pgrid_workload.Distribution.generate brng Pgrid_workload.Distribution.Uniform
           ~n:20_000
       in
       let o =
         Pgrid_core.Builder.index brng ~peers:2000 ~keys ~d_max:50 ~n_min:2
           ~refs_per_level:2
       in
       for i = 0 to 299 do
         let k = Pgrid_keyspace.Key.of_float (0.25 +. (0.01 *. Pgrid_prng.Rng.float brng)) in
         ignore (Pgrid_core.Overlay.insert o ~from:(i mod 2000) k "hot")
       done;
       o)
  in
  let balance_fixtures = Queue.create () in
  let balance_fixture () =
    let module Node = Pgrid_core.Node in
    let module Overlay = Pgrid_core.Overlay in
    let t = Lazy.force balance_template in
    let o = Overlay.create (Pgrid_prng.Rng.create ~seed) ~n:(Overlay.size t) in
    for i = 0 to Overlay.size t - 1 do
      let src = Overlay.node t i and dst = Overlay.node o i in
      Node.set_path dst src.Node.path;
      ignore (Node.merge_store dst ~from:src);
      Node.absorb_replicas dst src.Node.replicas;
      for level = 0 to Pgrid_keyspace.Path.length src.Node.path - 1 do
        Node.union_refs dst ~level ~from:src
      done
    done;
    Queue.push (o, Pgrid_prng.Rng.create ~seed) balance_fixtures;
    balance_fixtures
  in
  let balance_pass fixtures =
    let overlay, brng = Queue.pop fixtures in
    Pgrid_core.Balance.pass brng overlay balance_cfg
  in
  (* One routing step at a level of 40 references, the mean of the
     benchmark's overlays: peer 0 on path 0 refers to peers 1-40 on path
     1.  With every peer online the pick reads no reference; with peer 40
     offline it scans all 40. *)
  let forward_fixture ~offline =
    let module Node = Pgrid_core.Node in
    let module Overlay = Pgrid_core.Overlay in
    let o = Overlay.create (Pgrid_prng.Rng.create ~seed) ~n:41 in
    let src = Overlay.node o 0 in
    Node.set_path src (Pgrid_keyspace.Path.of_string "0");
    for i = 1 to 40 do
      Node.set_path (Overlay.node o i) (Pgrid_keyspace.Path.of_string "1");
      Node.add_ref src ~level:0 i
    done;
    if offline then Node.set_online (Overlay.node o 40) false;
    let key = Pgrid_keyspace.Key.of_float 0.75 in
    fun () -> ignore (Sys.opaque_identity (Overlay.forward o src key))
  in
  let sim_burst () =
    let s = Pgrid_simnet.Sim.create () in
    for i = 1 to 1000 do
      Pgrid_simnet.Sim.schedule s ~delay:(float_of_int i) (fun () -> ())
    done;
    Pgrid_simnet.Sim.run s
  in
  (* Storm's timer pattern: 1000 timers armed into a heap of 4000
     events, 90% cancelled (their hop resolved first), the rest drained
     with the plain events. *)
  let sim_timer_cancel () =
    let module Sim = Pgrid_simnet.Sim in
    let s = Sim.create () in
    for i = 1 to 3000 do
      Sim.schedule s ~delay:(float_of_int (i * 7 mod 3001)) ignore
    done;
    let timers =
      Array.init 1000 (fun i -> Sim.timer s ~delay:(float_of_int (i * 13 mod 1009)) ignore)
    in
    Array.iteri (fun i h -> if i mod 10 <> 0 then Sim.cancel s h) timers;
    Sim.run s
  in
  let tests =
    Test.make_grouped ~name:"pgrid"
      [
        Test.make ~name:"beta_of_p"
          (Staged.stage (fun () -> Pgrid_partition.Aep_math.beta_of_p 0.42));
        Test.make ~name:"alpha_of_p"
          (Staged.stage (fun () -> Pgrid_partition.Aep_math.alpha_of_p 0.12));
        Test.make ~name:"bisection-aep-n500"
          (Staged.stage (fun () ->
               ignore
                 (Pgrid_partition.Discrete.run rng Pgrid_partition.Discrete.Aep
                    ~n:500 ~p:0.3 ~samples:10)));
        Test.make ~name:"overlay-search"
          (Staged.stage (fun () ->
               ignore (Pgrid_core.Overlay.search overlay ~from:0 probe_key)));
        Test.make ~name:"overlay-forward-40"
          (Staged.stage (forward_fixture ~offline:false));
        Test.make ~name:"overlay-forward-40-offline"
          (Staged.stage (forward_fixture ~offline:true));
        Test.make ~name:"sim-1000-events" (Staged.stage sim_burst);
        Test.make ~name:"sim-timer-cancel" (Staged.stage sim_timer_cancel);
        Test.make ~name:"rng-int-64" (Staged.stage rng_ints);
        Test.make ~name:"rng-shuffle-64"
          (Staged.stage (fun () -> Pgrid_prng.Rng.shuffle rng draws));
        Test.make ~name:"intset-union" (Staged.stage unions);
        Test.make ~name:"codec-of-term"
          (* A single ~80ns call is dominated by call overhead and GC
             pacing from unrelated fixtures; a batch over varied term
             lengths keeps the estimate about the codec itself. *)
          (Staged.stage (fun () ->
               Array.iter
                 (fun t -> ignore (Pgrid_keyspace.Codec.of_term t))
                 codec_terms));
        (* Last, so its fixtures are not in the heap while the others run. *)
        Test.make_with_resource ~name:"balance-pass" Test.multiple
          ~allocate:balance_fixture ~free:Queue.clear (Staged.stage balance_pass);
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second (!micro_quota_ms /. 1000.))
      ~kde:None ()
  in
  (* Wall-clock targets run before us can leave a large major heap behind;
     without a compaction the kernel timings become GC-dominated (visible as
     negative OLS r^2).  Compact once so every run starts from a clean heap. *)
  Gc.compact ();
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with Some [ t ] -> Some t | _ -> None
      in
      let r2 = Analyze.OLS.r_square ols in
      Option.iter
        (fun rep ->
          match estimate with
          | Some ns ->
            Report.add_micro rep { Report.kernel = name; ns_per_run = ns; r_square = r2 }
          | None -> ())
        !report;
      let ns =
        match estimate with Some t -> Table.fmt_float ~decimals:1 t | None -> "-"
      in
      let r2s =
        match r2 with Some r -> Table.fmt_float ~decimals:4 r | None -> "-"
      in
      rows := [ name; ns; r2s ] :: !rows)
    results;
  Table.print ~title:"hot kernels" ~columns:[ "benchmark"; "ns/run"; "r^2" ]
    ~rows:(List.sort compare !rows);
  []

let targets =
  List.map (fun (e : Experiment.t) -> (e.name, experiment e)) Experiment.all
  @ [ ("scale", scale); ("micro", micro) ]

(* Runs one target and files its wall-clock seconds and metrics in the
   report. *)
let run_target (name, f) reps =
  let t0 = Unix.gettimeofday () in
  let values = f reps in
  let seconds = Unix.gettimeofday () -. t0 in
  Option.iter
    (fun rep -> Report.add_wall rep { Report.name; reps; seconds; values })
    !report;
  values

(* Pull --trace FILE / --metrics / --json FILE / --quota MS / --smoke /
   --scale-peers N,... out of argv before positional parsing. *)
type flags = {
  trace : string option;
  metrics : bool;
  json : string option;
  positional : string list;
}

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n" msg;
      Printf.eprintf "available targets: %s\n" (String.concat ", " (List.map fst targets));
      exit 2)
    fmt

let split_flags argv =
  let rec go acc = function
    | [] -> { acc with positional = List.rev acc.positional }
    | "--trace" :: path :: rest -> go { acc with trace = Some path } rest
    | "--metrics" :: rest -> go { acc with metrics = true } rest
    | "--json" :: path :: rest -> go { acc with json = Some path } rest
    | "--smoke" :: rest ->
      smoke := true;
      go acc rest
    | "--quota" :: ms :: rest ->
      (match float_of_string_opt ms with
      | Some q when q > 0. -> micro_quota_ms := q
      | _ -> usage_error "--quota expects a positive duration in milliseconds, got %S" ms);
      go acc rest
    | "--scale-peers" :: spec :: rest ->
      let sizes =
        List.map
          (fun s ->
            match int_of_string_opt (String.trim s) with
            | Some n when n >= 2 -> n
            | _ ->
              usage_error
                "--scale-peers expects a comma-separated list of sizes >= 2, got %S"
                spec)
          (String.split_on_char ',' spec)
      in
      if sizes = [] then usage_error "--scale-peers expects at least one size";
      Scale.sizes := sizes;
      go acc rest
    | ("--trace" | "--json" | "--quota" | "--scale-peers") :: [] ->
      usage_error "flag is missing its argument"
    | a :: rest -> go { acc with positional = a :: acc.positional } rest
  in
  go { trace = None; metrics = false; json = None; positional = [] } argv

(* Positional arguments: any number of target names plus at most one
   repetitions count.  Anything else is an error — a malformed
   repetitions argument must not silently fall back to the default. *)
let parse_positional args =
  let chosen, reps =
    List.fold_left
      (fun (chosen, reps) a ->
        if List.mem_assoc a targets then (a :: chosen, reps)
        else
          match int_of_string_opt a with
          | Some r when r >= 1 && reps = None -> (chosen, Some r)
          | Some r when r < 1 -> usage_error "repetitions must be >= 1, got %d" r
          | Some _ -> usage_error "more than one repetitions argument"
          | None -> usage_error "unknown target or malformed repetitions argument %S" a)
      ([], None) args
  in
  (List.rev chosen, reps)

(* [check experiments]: each at its smoke size, every claim printed with
   its verdict; true when all hold. *)
let check experiments =
  smoke := true;
  List.fold_left
    (fun ok (e : Experiment.t) ->
      let metrics = run_target (e.name, experiment e) None in
      let verdicts = List.map (Experiment.check metrics) e.claims in
      Printf.printf "\nclaims of %s:\n" e.name;
      List.iter
        (fun (holds, line) -> Printf.printf "  %s  %s\n" (if holds then "pass" else "FAIL") line)
        verdicts;
      ok && List.for_all fst verdicts)
    true experiments

let with_telemetry ~trace ~metrics f =
  let module Telemetry = Pgrid_telemetry.Telemetry in
  if trace = None && not metrics then f ()
  else begin
    let tel = Telemetry.create () in
    Option.iter
      (fun path ->
        match Pgrid_telemetry.Sink.jsonl_file path with
        | sink -> Telemetry.add_sink tel sink
        | exception Sys_error reason ->
          Printf.eprintf "bench: cannot open trace file: %s\n" reason;
          exit 1)
      trace;
    Pgrid_telemetry.Global.set tel;
    Fun.protect
      ~finally:(fun () ->
        Telemetry.close tel;
        Pgrid_telemetry.Global.reset ())
      (fun () ->
        let result = f () in
        if metrics then Pgrid_telemetry.Summary.print tel;
        Option.iter
          (fun path ->
            Printf.printf "trace: %d events written to %s\n"
              (Telemetry.events_recorded tel) path)
          trace;
        result)
  end

let () =
  let flags = split_flags (List.tl (Array.to_list Sys.argv)) in
  let job =
    match flags.positional with
    | "check" :: [] -> usage_error "check expects one or more experiment names"
    | "check" :: names ->
      let experiments =
        List.map
          (fun name ->
            try Experiment.find name with Invalid_argument msg -> usage_error "%s" msg)
          names
      in
      fun () -> check experiments
    | args ->
      let chosen, reps = parse_positional args in
      fun () ->
        if chosen = [] then print_endline "P-Grid reproduction bench harness -- all artifacts";
        List.iter
          (fun name -> ignore (run_target (name, List.assoc name targets) reps))
          (if chosen = [] then List.map fst targets else chosen);
        true
  in
  Option.iter (fun _ -> report := Some (Report.create ())) flags.json;
  let ok = with_telemetry ~trace:flags.trace ~metrics:flags.metrics job in
  (match (flags.json, !report) with
  | Some path, Some rep -> Report.write rep ~path ~seed
  | _ -> ());
  if not ok then exit 1
