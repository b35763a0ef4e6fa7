module Series = Pgrid_stats.Series

type direction = Figures.direction = Up | Down
type metric = Figures.metric

type block =
  | Series of Series.figure
  | Grid of Figures.fig6
  | Table of { title : string; columns : string list; rows : string list list }

type output = { blocks : block list; metrics : metric list }

(* --- identity ------------------------------------------------------------ *)

let digest out =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let cells row = String.concat "\t" row in
  let floats row = cells (List.map (Printf.sprintf "%h") row) in
  List.iter
    (function
      | Series f ->
        line "series %s\t%s\t%s" f.Series.title f.x_label f.y_label;
        List.iter
          (fun s ->
            line "%s" s.Series.name;
            Array.iter (fun (x, y) -> line "%s" (floats [ x; y ])) s.points)
          f.series
      | Grid g ->
        line "grid %s" g.Figures.title;
        line "%s" (cells g.distributions);
        List.iteri
          (fun i category -> line "%s\t%s" category (floats (Array.to_list g.values.(i))))
          g.categories
      | Table { title; columns; rows } ->
        line "table %s" title;
        List.iter (fun row -> line "%s" (cells row)) (columns :: rows))
    out.blocks;
  List.iter
    (fun (name, v, dir) -> line "%s\t%h\t%s" name v (match dir with Up -> "up" | Down -> "down"))
    out.metrics;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- claims -------------------------------------------------------------- *)

type expr =
  | Metric of string
  | Const of float
  | Times of float * expr
  | Plus of expr * expr
  | Count of string

type op = Lt | Le | Eq | Ge | Gt
type claim = { lhs : expr; op : op; rhs : expr }

let cell v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.4g" v

let rec expr_text = function
  | Metric name -> name
  | Const x -> cell x
  | Times (k, e) -> cell k ^ " * " ^ expr_text e
  | Plus (a, b) -> expr_text a ^ " + " ^ expr_text b
  | Count prefix -> "count(" ^ prefix ^ ")"

let op_text = function Lt -> "<" | Le -> "<=" | Eq -> "==" | Ge -> ">=" | Gt -> ">"

exception Missing of string

let check metrics c =
  let rec eval = function
    | Metric name -> (
      match List.find_opt (fun (n, _, _) -> n = name) metrics with
      | Some (_, v, _) -> v
      | None -> raise (Missing name))
    | Const x -> x
    | Times (k, e) -> k *. eval e
    | Plus (a, b) -> eval a +. eval b
    | Count prefix -> (
      match List.filter (fun (n, _, _) -> String.starts_with ~prefix n) metrics with
      | [] -> raise (Missing prefix)
      | named -> float_of_int (List.length named))
  in
  let text = String.concat " " [ expr_text c.lhs; op_text c.op; expr_text c.rhs ] in
  match (eval c.lhs, eval c.rhs) with
  | l, r ->
    let holds =
      match c.op with Lt -> l < r | Le -> l <= r | Eq -> l = r | Ge -> l >= r | Gt -> l > r
    in
    (holds, Printf.sprintf "%s  (%s %s %s)" text (cell l) (op_text c.op) (cell r))
  | exception Missing name -> (false, Printf.sprintf "%s  (no metric %s)" text name)

let judge metrics claims =
  let seen = Hashtbl.create 256 in
  List.filter_map
    (fun (name, _, _) ->
      let times = 1 + Option.value (Hashtbl.find_opt seen name) ~default:0 in
      Hashtbl.replace seen name times;
      if times = 2 then Some (false, "metric " ^ name ^ " reported more than once") else None)
    metrics
  @ List.map (check metrics) claims

(* --- tables -------------------------------------------------------------- *)

(* [(arm, rest)] of a metric name, split at its last '/'. *)
let split_arm name =
  match String.rindex_opt name '/' with
  | Some i -> (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> ("", name)

(* The distinct elements of [l], in order of first appearance. *)
let distinct l =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)

let summary ~title metrics =
  let cells =
    List.filter_map
      (fun (name, v, _) ->
        if String.contains name '@' then None
        else
          let arm, row = split_arm name in
          Some ((arm, row), v))
      metrics
  in
  let arms = distinct (List.map (fun ((arm, _), _) -> arm) cells) in
  let value row arm =
    match List.assoc_opt (arm, row) cells with Some v -> cell v | None -> "-"
  in
  Table
    {
      title;
      columns = "metric" :: arms;
      rows =
        List.map
          (fun row -> row :: List.map (value row) arms)
          (distinct (List.map (fun ((_, row), _) -> row) cells));
    }

let series ~title metrics =
  let samples =
    List.filter_map
      (fun (name, v, _) ->
        match String.index_opt name '@' with
        | None -> None
        | Some i ->
          let t = float_of_string (String.sub name (i + 1) (String.length name - i - 1)) in
          Some ((split_arm (String.sub name 0 i), t), v))
      metrics
  in
  let keys = List.map (fun ((arm_name, _), _) -> arm_name) samples in
  let arms = distinct (List.map fst keys) in
  let columns =
    List.concat_map
      (fun name -> List.filter (fun c -> List.mem c keys) (List.map (fun arm -> (arm, name)) arms))
      (distinct (List.map snd keys))
  in
  Table
    {
      title;
      columns = "minutes" :: List.map (fun (arm, name) -> name ^ " " ^ arm) columns;
      rows =
        List.map
          (fun t ->
            Printf.sprintf "%.0f" (t /. 60.)
            :: List.map
                 (fun c ->
                   match List.assoc_opt (c, t) samples with Some v -> cell v | None -> "-")
                 columns)
          (distinct (List.map (fun ((_, t), _) -> t) samples));
    }

(* --- the registry -------------------------------------------------------- *)

type t = {
  name : string;
  title : string;
  notes : string list;
  run : reps:int option -> smoke:bool -> seed:int -> output;
  claims : claim list;
}

let m name = Metric name
let k x = Const x
let ( <. ) lhs rhs = { lhs; op = Lt; rhs }
let ( <=. ) lhs rhs = { lhs; op = Le; rhs }
let ( =. ) lhs rhs = { lhs; op = Eq; rhs }
let ( >=. ) lhs rhs = { lhs; op = Ge; rhs }
let ( >. ) lhs rhs = { lhs; op = Gt; rhs }

(* A fig6 grid reports one metric per (category, distribution) cell. *)
let grid_metrics (g : Figures.fig6) =
  List.concat
    (List.mapi
       (fun i category ->
         List.map2
           (fun dist v -> (category ^ "/" ^ dist, v, Down))
           g.Figures.distributions
           (Array.to_list g.Figures.values.(i)))
       g.Figures.categories)

(* A paper figure, table or ablation: one size, no claims. *)
let artifact name title notes blocks =
  {
    name;
    title;
    notes;
    claims = [];
    run =
      (fun ~reps ~smoke:_ ~seed ->
        let blocks = blocks ~reps ~seed in
        {
          blocks;
          metrics =
            List.concat_map
              (function Grid g -> grid_metrics g | Series _ | Table _ -> [])
              blocks;
        });
  }

let fig6 name title note (f : ?reps:int -> seed:int -> unit -> Figures.fig6) =
  artifact name title [ note ] (fun ~reps ~seed -> [ Grid (f ?reps ~seed ()) ])

let table title (columns, rows) = Table { title; columns; rows }

(* A simulation experiment: [run ~smoke ~seed] measures, [tables] renders. *)
let sim name title notes ~tables ~claims run =
  {
    name;
    title;
    notes;
    claims;
    run =
      (fun ~reps:_ ~smoke ~seed ->
        let metrics = run ~smoke ~seed in
        { blocks = tables metrics; metrics });
  }

let over_time series_title summary_title metrics =
  [ series ~title:series_title metrics; summary ~title:summary_title metrics ]

(* The query storm runs its smoke configuration at both sizes, so the
   full report carries the smoke metrics CI compares exactly. *)
let queries_configs = [ ("smoke", 2000, 100_000); ("full", 10_000, 1_000_000) ]

let all =
  [
    artifact "fig3" "Figure 3 -- alpha''(p)"
      [ "paper: grows extremely fast for very small p (error-prone regime)" ]
      (fun ~reps:_ ~seed:_ -> [ Series (Figures.fig3 ()) ]);
    artifact "fig4" "Figure 4 -- deviation of p0 from n*p (one bisection, n=1000, s=10)"
      [ "paper: SAM/AEP systematically high; COR and AUT near zero" ]
      (fun ~reps ~seed -> [ Series (Figures.fig4 ?reps ~seed ()) ]);
    artifact "fig5" "Figure 5 -- total interactions (one bisection, n=1000, s=10)"
      [ "paper: AEP family below AUT over most of the range; cost rises as p falls" ]
      (fun ~reps ~seed -> [ Series (Figures.fig5 ?reps ~seed ()) ]);
    fig6 "fig6a" "Figure 6(a) -- load-balance deviation vs population"
      "paper: stable across sizes; skew order U < P0.5 < P1.0 < P1.5 <= N, A" Figures.fig6a;
    fig6 "fig6b" "Figure 6(b) -- deviation vs required replication n_min"
      "paper: stable for mild skew, degrades for strong skew at large n_min" Figures.fig6b;
    fig6 "fig6c" "Figure 6(c) -- deviation vs data sample size d_max"
      "paper: no systematic influence of the sample size" Figures.fig6c;
    fig6 "fig6d" "Figure 6(d) -- theoretical vs heuristic decision probabilities"
      "paper: heuristics degrade load balance substantially" Figures.fig6d;
    fig6 "fig6e" "Figure 6(e) -- construction interactions per peer"
      "paper: 2-12 per peer, growing gracefully with network size" Figures.fig6e;
    fig6 "fig6f" "Figure 6(f) -- data keys moved per peer"
      "paper: grows gracefully with size; skew increases bandwidth" Figures.fig6f;
    artifact "fig7" "Figure 7 -- participating peers over time (simulated PlanetLab)"
      [ "paper: ramp to ~300 during joins, plateau, dip under churn" ]
      (fun ~reps:_ ~seed -> [ Series (Figures.fig7 ~seed ()) ]);
    artifact "fig8" "Figure 8 -- aggregate bandwidth per peer"
      [ "paper shape: construction peak, fast decay; query traffic afterwards" ]
      (fun ~reps:_ ~seed -> [ Series (Figures.fig8 ~seed ()) ]);
    artifact "fig9" "Figure 9 -- query latency over time"
      [ "paper: flat during static phase; mean and deviation rise under churn" ]
      (fun ~reps:_ ~seed -> [ Series (Figures.fig9 ~seed ()) ]);
    artifact "table1" "Table 1 -- in-text statistics of Section 5.2" []
      (fun ~reps:_ ~seed -> [ table "paper vs measured" (Figures.table1 ~seed ()) ]);
    sim "resilience" "Resilience -- construction and queries under injected faults"
      [
        "bursty loss + partition + crash-restart, scaled by severity; severity 0 = \
         hardened fault-free baseline";
        "expected: deviation within 2x baseline and success >= 80% at severity 0.5";
      ]
      ~tables:(fun ms -> [ summary ~title:"fault-severity sweep" ms ])
      ~claims:
        [
          m "s0.5/deviation" <=. Times (2., m "s0.0/deviation");
          m "s0.5/success_pct" >=. k 80.;
        ]
      (fun ~smoke:_ ~seed -> Figures.resilience ~seed ());
    artifact "ablation-seq" "Ablation X1 -- sequential joins vs parallel construction (Sec 4.3)"
      [ "paper claim: messages comparable; latency O(n log n) vs O(log^2 n)" ]
      (fun ~reps:_ ~seed ->
        [ table "sequential vs parallel" (Figures.ablation_sequential ~seed ()) ]);
    artifact "ablation-cost" "Ablation X2 -- interaction cost constants (Sec 3)"
      [ "paper: eager = ln 2 per peer, AUT = 2 ln 2 per peer at p = 1/2" ]
      (fun ~reps ~seed -> [ table "cost per peer" (Figures.ablation_cost ?reps ~seed ()) ]);
    artifact "ablation-cor" "Ablation X3 -- sampling-bias corrections"
      [ "Taylor Eqs. 9-10 overshoot where alpha'' varies; calibration holds" ]
      (fun ~reps ~seed ->
        [ table "mean deviation of p0" (Figures.ablation_correction ?reps ~seed ()) ]);
    artifact "ablation-pht"
      "Ablation X4 -- range queries: order-preserving overlay vs PHT-over-DHT"
      [ "paper Sec 6: hashing needs an extra index and pays O(log n) per trie node" ]
      (fun ~reps:_ ~seed ->
        [ table "message costs per range query" (Figures.ablation_pht ~seed ()) ]);
    artifact "ablation-merge" "Ablation X5 -- merging independently created indices"
      [ "the same interaction protocol fuses two overlays without a rebuild" ]
      (fun ~reps:_ ~seed -> [ table "merge vs fresh build" (Figures.ablation_merge ~seed ()) ]);
    artifact "ablation-maintain"
      "Ablation X6 -- maintenance: leaves, repair, re-joins, rebalancing"
      [ "the sequential maintenance model operating on a constructed overlay" ]
      (fun ~reps:_ ~seed ->
        [ table "maintenance timeline" (Figures.ablation_maintenance ~seed ()) ]);
    sim "survival" "Survival -- hours of churn + permanent kills, daemon on vs off"
      [
        "paper churn (60-300 s offline every 300-600 s) plus a 30% permanent-kill wave";
        "expected: the daemon keeps query success >= 95% and loses no keys; the \
         daemon-off arm bleeds data";
      ]
      ~tables:(over_time "health and query success over time" "endurance summary")
      ~claims:
        [
          m "on/final_lost" <=. m "off/final_lost";
          m "dominance/ge_frac" =. k 1.;
          (* Both arms face the same kill waves and are sampled alike; only
             the daemon arm maintains. *)
          m "on/kills" =. m "off/kills";
          Count "on/score@" =. Count "off/score@";
          m "on/exchanges" >. k 0.;
          m "off/exchanges" =. k 0.;
          m "off/rereplications" =. k 0.;
        ]
      (fun ~smoke ~seed ->
        if smoke then Figures.survival ~horizon:1800. ~sample_every:60. ~seed ()
        else Figures.survival ~seed ());
    sim "balance" "Balance -- Pareto-1.5 insert storm, online balancing on vs off"
      [
        "a U-built overlay takes a skewed storm; runtime splits follow the load";
        Printf.sprintf
          "expected: balanced max load <= %.1f x d_max while the unbalanced arm exceeds \
           it, query success no worse"
          Figures.balance_slack;
      ]
      ~tables:(over_time "partition load and query success over time" "balance summary")
      ~claims:
        [
          m "on/peak_max_load" <=. m "bound/max_load";
          m "off/peak_max_load" >. m "bound/max_load";
          m "on/min_success_pct" >=. m "off/min_success_pct";
          m "on/insert_failures" =. k 0.;
        ]
      (fun ~smoke ~seed ->
        if smoke then Figures.balance ~horizon:1800. ~sample_every:90. ~seed ()
        else Figures.balance ~seed ());
    sim "txn" "Txn -- atomic document indexing under crash-during-commit faults"
      [
        "2PC over the simulated network with durable per-peer intent logs; a Poisson \
         crash process scaled by severity interrupts commits";
        "expected: zero torn index states, zero lost committed documents and zero abort \
         residue at every severity; commit rate degrades gracefully";
      ]
      ~tables:(fun ms -> [ summary ~title:"crash-severity sweep" ms ])
      ~claims:
        (List.concat_map
           (fun severity ->
             List.map
               (fun audit -> m (severity ^ "/" ^ audit) =. k 0.)
               [ "torn"; "lost_committed"; "abort_residue"; "intents_left" ])
           [ "s0.0"; "s0.3"; "s0.6" ]
        @ [ m "s0.3/commit_pct" >=. k 95. ])
      (fun ~smoke ~seed ->
        if smoke then Figures.txn ~horizon:1800. ~seed () else Figures.txn ~seed ());
    sim "overload" "Overload -- Zipf-1.1 query storm, protection on vs off"
      [
        "offered load ramps past the hot partitions' aggregate service capacity and \
         back; every peer drains a bounded queue at a fixed rate";
        "expected: the protected arm (shedding + breakers + hedging) regains >= 90% of \
         pre-ramp goodput after the ramp; the unprotected arm stays depressed \
         (metastable collapse)";
      ]
      ~tables:(over_time "goodput, sheds and backlog over time" "overload summary")
      ~claims:
        [
          m "on/recovery_ratio" >=. k 0.9;
          m "on/recovered" =. k 1.;
          m "off/recovery_ratio" <. k 0.9;
          m "off/recovered" =. k 0.;
          m "on/shed_ratio" >. k 0.;
          m "on/shed_ratio" <. k 0.5;
          m "off/sheds" =. k 0.;
        ]
      (fun ~smoke ~seed ->
        if smoke then Figures.overload ~peers:2000 ~horizon:720. ~seed ()
        else Figures.overload ~seed ());
    {
      name = "queries";
      title = "Queries -- Zipf-1.1 lookup storm, route/result caches on vs off";
      notes =
        [
          "both arms replay the identical pregenerated trace over the same overlay; \
           validation on use means a stale cache entry costs a fallback hop, never a \
           wrong responsible peer";
          "expected: the cached arm cuts mean hops and raises queries/s; wrong \
           responsible and store mismatches stay 0 under the live balance storm";
        ];
      claims =
        [
          m "smoke/on/routed" =. m "smoke/off/routed";
          m "smoke/on/found" =. m "smoke/off/found";
          m "smoke/on/found" =. m "smoke/on/issued";
          m "smoke/hop_reduction" >=. k 0.3;
          m "smoke/speedup" >. k 1.;
          m "smoke/on/hit_ratio" >. k 0.;
          m "smoke/storm/wrong_responsible" =. k 0.;
          m "smoke/storm/mismatch" =. k 0.;
          m "smoke/storm/splits" >. k 0.;
          m "smoke/batch/unresolved" =. k 0.;
        ];
      run =
        (fun ~reps:_ ~smoke ~seed ->
          let runs =
            List.map
              (fun (tag, peers, count) ->
                let metrics =
                  List.map
                    (fun (name, v, dir) -> (tag ^ "/" ^ name, v, dir))
                    (Figures.queries ~peers ~count ~seed ())
                in
                ( summary
                    ~title:(Printf.sprintf "%s: %d peers, %d queries" tag peers count)
                    metrics,
                  metrics ))
              (if smoke then [ List.hd queries_configs ] else queries_configs)
          in
          { blocks = List.map fst runs; metrics = List.concat_map snd runs });
    };
    sim "partition" "Partition -- split-brain window, reconciliation on vs off"
      [
        "the network halves for the middle half of the run while skewed inserts, routed \
         deletes and load balancing keep running on both sides";
        "expected: the reconciling arm reaches 0 resurrected / diverged / lost within \
         the bound after heal; the baseline arm keeps resurrected deletes";
      ]
      ~tables:(over_time "split-brain violations over time" "partition summary")
      ~claims:
        [
          m "on/converged" =. k 1.;
          m "on/converge_seconds" <=. m "bound/converge_seconds";
          m "on/final_resurrected" =. k 0.;
          m "on/final_diverged" =. k 0.;
          m "on/final_lost" =. k 0.;
          (* The baseline must still show split-brain damage, or the cut no
             longer discriminates. *)
          Plus (m "off/final_resurrected", m "off/final_diverged") >. k 0.;
        ]
      (fun ~smoke ~seed ->
        if smoke then Figures.partition ~peers:256 ~horizon:3600. ~sample_every:60. ~seed ()
        else Figures.partition ~seed ());
  ]

let find name =
  match List.find_opt (fun e -> e.name = name) all with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "unknown experiment %s (one of: %s)" name
         (String.concat ", " (List.map (fun e -> e.name) all)))
