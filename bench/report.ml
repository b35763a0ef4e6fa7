(* Machine-readable bench reports (BENCH_*.json).

   A report records, for one bench invocation, the wall-clock seconds of
   every figure/ablation target that ran (plus any machine-readable
   metric values the target exposes) and the Bechamel ns/run estimates of
   the micro kernels.  `bench/compare.exe` diffs two such files and flags
   regressions, so every perf PR is judged against a recorded baseline. *)

module Experiment = Pgrid_experiment.Experiment

type wall = {
  name : string;
  reps : int option;  (** repetitions override, if any *)
  seconds : float;  (** wall-clock for the whole target *)
  values : Experiment.metric list;
      (** named metric values, e.g. fig6 cells, with improvement direction *)
}

type micro = {
  kernel : string;
  ns_per_run : float;
  r_square : float option;
}

type t = { mutable walls : wall list; mutable micros : micro list }

let create () = { walls = []; micros = [] }
let add_wall t w = t.walls <- w :: t.walls
let add_micro t m = t.micros <- m :: t.micros

let json_of_wall w =
  let base =
    [
      ("name", Json.Str w.name);
      ("reps", match w.reps with Some r -> Json.Num (float_of_int r) | None -> Json.Null);
      ("seconds", Json.Num w.seconds);
    ]
  in
  let values =
    match w.values with
    | [] -> []
    | vs ->
      [
        ( "values",
          Json.Arr
            (List.map
               (fun (k, v, d) ->
                 Json.Obj
                   [
                     ("name", Json.Str k);
                     ("value", Json.Num v);
                     ("direction", Json.Str (match d with Experiment.Up -> "up" | Down -> "down"));
                   ])
               vs) );
      ]
  in
  Json.Obj (base @ values)

let json_of_micro m =
  Json.Obj
    ([
       ("name", Json.Str m.kernel);
       ("ns_per_run", Json.Num m.ns_per_run);
     ]
    @
    match m.r_square with
    | Some r when Float.is_finite r -> [ ("r_square", Json.Num r) ]
    | _ -> [])

let write t ~path ~seed =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "pgrid-bench/1");
        ("created_unix", Json.Num (Unix.time ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("seed", Json.Num (float_of_int seed));
        ("targets", Json.Arr (List.rev_map json_of_wall t.walls));
        ("micro", Json.Arr (List.rev_map json_of_micro t.micros));
      ]
  in
  Json.to_file path doc;
  Printf.eprintf "bench: report written to %s (%d targets, %d micro kernels)\n%!" path
    (List.length t.walls) (List.length t.micros)
