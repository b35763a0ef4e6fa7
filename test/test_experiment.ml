(* Tests for Pgrid_experiment: every figure generator produces well-formed,
   paper-shaped data (small repetitions for speed). *)

module Figures = Pgrid_experiment.Figures
module Series = Pgrid_stats.Series

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let series_by_name fig name =
  match List.find_opt (fun s -> s.Series.name = name) fig.Series.series with
  | Some s -> s
  | None -> Alcotest.failf "series %s missing" name

let value_at s x =
  let found = ref nan in
  Array.iter (fun (px, py) -> if Float.abs (px -. x) < 1e-9 then found := py) s.Series.points;
  !found

let test_fig3_shape () =
  let fig = Figures.fig3 () in
  let s = series_by_name fig "alpha''" in
  checkb "has points" true (Array.length s.Series.points > 10);
  Array.iter (fun (_, y) -> checkb "positive" true (y > 0.)) s.Series.points

let fig45 = lazy (Figures.fig4 ~n:400 ~reps:8 ~seed:123 (), Figures.fig5 ~n:400 ~reps:8 ~seed:123 ())

let test_fig4_shape () =
  let fig4, _ = Lazy.force fig45 in
  checki "five models" 5 (List.length fig4.Series.series);
  let aep = series_by_name fig4 "AEP" in
  let aut = series_by_name fig4 "AUT" in
  (* AEP biased upward at small p, AUT close to zero. *)
  checkb "AEP bias visible" true (value_at aep 0.1 > 5.);
  checkb "AUT near zero" true (Float.abs (value_at aut 0.1) < 6.)

let test_fig5_shape () =
  let _, fig5 = Lazy.force fig45 in
  let aut = series_by_name fig5 "AUT" in
  let mva = series_by_name fig5 "MVA" in
  (* AUT costs more than the AEP mean-value prediction at p = 1/2, and the
     AEP cost rises as p falls. *)
  checkb "AUT above MVA at 1/2" true (value_at aut 0.5 > value_at mva 0.5);
  checkb "cost rises for small p" true (value_at mva 0.05 > value_at mva 0.5)

let test_fig6_table_rendering () =
  let f =
    {
      Figures.title = "demo";
      categories = [ "n=1"; "n=2" ];
      distributions = [ "U"; "A" ];
      values = [| [| 0.1; 0.2 |]; [| 0.3; 0.4 |] |];
    }
  in
  let s = Figures.fig6_table f in
  checkb "mentions category" true (Test_util.contains s "n=2");
  checkb "mentions value" true (Test_util.contains s "0.400")

let test_planetlab_artifacts () =
  (* One shared small run behind figures 7-9 and table 1. *)
  let fig7 = Figures.fig7 ~peers:48 ~seed:7 () in
  let fig8 = Figures.fig8 ~peers:48 ~seed:7 () in
  let fig9 = Figures.fig9 ~peers:48 ~seed:7 () in
  let columns, rows = Figures.table1 ~peers:48 ~seed:7 () in
  checki "fig7 one series" 1 (List.length fig7.Series.series);
  checki "fig8 two series" 2 (List.length fig8.Series.series);
  checki "fig9 two series" 2 (List.length fig9.Series.series);
  checki "table has three columns" 3 (List.length columns);
  checkb "table has the paper's stats" true (List.length rows >= 6);
  (* Memoization: the three figures came from a single simulation. *)
  let o1 = Figures.planetlab_run ~peers:48 ~seed:7 () in
  let o2 = Figures.planetlab_run ~peers:48 ~seed:7 () in
  checkb "memoized" true (o1 == o2)

module Experiment = Pgrid_experiment.Experiment

let bench_seed = 20050830

(* The contents of a file of test/identity: [dune runtest] runs the suite
   in test/, [dune exec] from the root. *)
let identity_file name =
  let path = Filename.concat "identity" name in
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  In_channel.with_open_text path In_channel.input_all

(* [(name, md5)] of each line of an identity manifest. *)
let manifest_names path =
  identity_file path
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | md5 :: "" :: name :: _ -> (name, md5)
         | _ -> Alcotest.failf "%s: malformed line %S" path line)

(* Every registry entry has a line in the full manifest and, overload
   aside, in the smoke one, each entry once; every line names a registry
   entry, one of the two library runs or a file cli.sh writes. *)
let test_manifests_complete () =
  let registry = List.map (fun (e : Experiment.t) -> e.name) Experiment.all in
  let library = [ "net-engine"; "overload-arms" ] in
  let script = identity_file "cli.sh" in
  let cli name = Test_util.contains script (" " ^ name) in
  List.iter
    (fun (path, expected) ->
      let names = List.map fst (manifest_names path) in
      List.iter (fun name -> checkb (path ^ " has " ^ name) true (List.mem name names)) expected;
      checki (path ^ ": one line per artifact") (List.length names)
        (List.length (List.sort_uniq compare names));
      List.iter
        (fun name ->
          checkb (path ^ ": " ^ name ^ " names an artifact") true
            (List.mem name registry || List.mem name library || cli name))
        names)
    [
      ("smoke.manifest", List.filter (( <> ) "overload") registry @ library);
      ("full.manifest", registry @ library);
    ]

(* ablation-cor reads Calibration.cache and Aep_math's memos.  Run twice
   in this process, the second time with every memo warm, it must print
   the bytes a fresh process recorded in the smoke manifest. *)
let test_memoised_artifact_twice () =
  let run () =
    Experiment.digest
      ((Experiment.find "ablation-cor").run ~reps:(Some 1) ~smoke:true ~seed:bench_seed)
  in
  let recorded = List.assoc "ablation-cor" (manifest_names "smoke.manifest") in
  Alcotest.(check string) "first run" recorded (run ());
  Alcotest.(check string) "second run" recorded (run ())

let test_claim_reads_missing_metric () =
  let metrics =
    [
      ("on/lost", 0., Experiment.Down);
      ("on/score@0", 1., Down);
      ("on/score@60", 1., Down);
      ("off/score@0", 1., Down);
    ]
  in
  let check lhs op rhs = Experiment.check metrics { lhs; op; rhs } in
  let holds, line = check (Metric "on/lsot") Eq (Const 0.) in
  checkb "a misspelled metric fails" false holds;
  checkb "and says which" true (Test_util.contains line "on/lsot");
  checkb "the spelled one holds" true (fst (check (Metric "on/lost") Eq (Const 0.)));
  checkb "a count counts names by prefix" true (fst (check (Count "on/score@") Eq (Const 2.)));
  checkb "unequal counts differ" false (fst (check (Count "on/score@") Eq (Count "off/score@")));
  let holds, line = check (Count "on/scroe@") Eq (Count "on/scroe@") in
  checkb "a count of no name fails" false holds;
  checkb "and says which prefix" true (Test_util.contains line "on/scroe@");
  checkb "distinct names pass" true (Experiment.judge metrics [] = []);
  (match Experiment.judge (metrics @ [ ("on/lost", 1., Down); ("on/lost", 2., Down) ]) [] with
  | [ (false, line) ] -> checkb "a repeated name fails by name" true (Test_util.contains line "on/lost")
  | verdicts -> Alcotest.failf "one failing verdict expected, got %d" (List.length verdicts));
  checkb "unknown names raise" true
    (match Experiment.find "nope" with _ -> false | exception Invalid_argument _ -> true)

let test_summary_renderer () =
  let metrics =
    [
      ("bound/max", 100., Experiment.Down);
      ("on/peak", 87., Down);
      ("on/load@0", 1., Down);
      ("off/peak", 140.5, Down);
      ("off/splits", 0., Down);
    ]
  in
  match Experiment.summary ~title:"t" metrics with
  | Table { columns; rows; _ } ->
    checkb "arms as columns" true (columns = [ "metric"; "bound"; "on"; "off" ]);
    checkb "metrics as rows, gaps dashed" true
      (rows
      = [ [ "max"; "100"; "-"; "-" ]; [ "peak"; "-"; "87"; "140.5" ]; [ "splits"; "-"; "-"; "0" ] ])
  | _ -> Alcotest.fail "table expected"

let test_ablation_sequential () =
  let columns, rows = Figures.ablation_sequential ~sizes:[ 32; 64 ] ~seed:3 () in
  checki "columns" 7 (List.length columns);
  checki "one row per size" 2 (List.length rows);
  (* Serialized latency grows with n. *)
  let latency row = int_of_string (List.nth row 2) in
  checkb "latency grows" true (latency (List.nth rows 1) > latency (List.nth rows 0))

let test_ablation_cost () =
  let columns, rows = Figures.ablation_cost ~sizes:[ 300 ] ~reps:5 ~seed:3 () in
  checki "columns" 7 (List.length columns);
  match rows with
  | [ row ] ->
    let eager = float_of_string (List.nth row 1) in
    let aut = float_of_string (List.nth row 3) in
    checkb "eager near ln 2" true (Float.abs (eager -. log 2.) < 0.15);
    checkb "AUT near 2 ln 2" true (Float.abs (aut -. (2. *. log 2.)) < 0.3)
  | _ -> Alcotest.fail "one row expected"

let test_ablation_correction () =
  let _, rows = Figures.ablation_correction ~n:300 ~reps:5 ~seed:3 () in
  checki "six p values" 6 (List.length rows)

let suite =
  [
    Alcotest.test_case "fig3 shape" `Quick test_fig3_shape;
    Alcotest.test_case "fig4 shape" `Slow test_fig4_shape;
    Alcotest.test_case "fig5 shape" `Slow test_fig5_shape;
    Alcotest.test_case "fig6 rendering" `Quick test_fig6_table_rendering;
    Alcotest.test_case "planetlab artifacts" `Slow test_planetlab_artifacts;
    Alcotest.test_case "identity manifests complete" `Quick test_manifests_complete;
    Alcotest.test_case "memoised artifact twice" `Quick test_memoised_artifact_twice;
    Alcotest.test_case "ablation sequential" `Quick test_ablation_sequential;
    Alcotest.test_case "ablation cost" `Slow test_ablation_cost;
    Alcotest.test_case "ablation correction" `Slow test_ablation_correction;
    Alcotest.test_case "claim reads missing metric" `Quick test_claim_reads_missing_metric;
    Alcotest.test_case "summary renderer" `Quick test_summary_renderer;
  ]
