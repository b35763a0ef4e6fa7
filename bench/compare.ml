(* Diff two bench reports produced by `bench/main.exe --json`.

   Usage:
     dune exec bench/compare.exe -- BASELINE.json CANDIDATE.json [--threshold PCT]

   Matches wall-clock targets, per-target metric values and micro
   kernels by name, prints the old/new numbers with the relative change,
   and exits non-zero when anything regressed by more than the threshold
   (default 10%).  Timings and cost-like metrics regress by going up;
   quality metrics (success / score / found / ge_frac) regress by going
   down.

   --strict promotes the stderr warnings (entries present in only one
   report, direction disagreements) to a non-zero exit: CI baselines
   should fail loudly when a metric silently disappears or flips
   polarity, not just when a shared one drifts.

   --exact flags every change, in either direction and of any size: for
   seed-determined values that must reproduce bit for bit.

   --filter SUBSTR (repeatable) keeps only entries whose name contains
   one of the given substrings; --exclude SUBSTR (repeatable) then
   drops any whose name contains one.  Both apply to every section and
   to both reports before pairing, so a baseline's out-of-scope entries
   don't trip the --strict one-sided warnings — which is what lets CI
   diff just the deterministic subset (e.g. --filter smoke/ --exclude
   seconds) of a report that also carries machine-dependent numbers. *)

module Table = Pgrid_stats.Table

type row = {
  name : string;
  old_v : float;
  new_v : float;
  floor : float;
  higher_better : bool;
}

(* [floor] is an absolute-delta noise floor: changes smaller than it are
   never flagged, whatever the relative change.  Wall-clock targets use
   50ms — a cached sub-millisecond target can easily "double" on timer
   jitter alone.  Micro kernels use 0 (their values are OLS estimates
   over many runs, already statistical). *)
let wall_floor = 0.05

let pct { old_v; new_v; _ } =
  if old_v = 0. then 0. else 100. *. ((new_v -. old_v) /. old_v)

(* Relative change in the direction that hurts: positive means worse. *)
let badness r = if r.higher_better then -.pct r else pct r

let exact = ref false

let flagged ~threshold r =
  if !exact then r.new_v <> r.old_v
  else badness r > threshold && Float.abs (r.new_v -. r.old_v) > r.floor

(* Metric-name heuristic for the direction of goodness, used only for
   reports written before the explicit per-metric "direction" field
   existed.  Everything the old bench reported is either a rate we want
   high (query success, health score, keys found, dominance fraction)
   or a cost we want low (seconds, hops, loads, losses). *)
let metric_higher_better name =
  List.exists
    (fun marker ->
      let ln = String.lowercase_ascii name in
      let lm = String.length marker and n = String.length ln in
      let rec scan i = i + lm <= n && (String.sub ln i lm = marker || scan (i + 1)) in
      scan 0)
    [ "success"; "score"; "found"; "ge_frac" ]

let collect_walls doc =
  Json.member "targets" doc
  |> Option.value ~default:(Json.Arr [])
  |> Json.to_list
  |> List.filter_map (fun t ->
         match (Json.str_member "name" t, Json.num_member "seconds" t) with
         | Some name, Some seconds -> Some (name, seconds)
         | _ -> None)

let collect_micros doc =
  Json.member "micro" doc
  |> Option.value ~default:(Json.Arr [])
  |> Json.to_list
  |> List.filter_map (fun t ->
         match (Json.str_member "name" t, Json.num_member "ns_per_run" t) with
         | Some name, Some ns -> Some (name, ns)
         | _ -> None)

(* Per-target metric values, flattened to "target/metric". *)
let collect_values doc =
  Json.member "targets" doc
  |> Option.value ~default:(Json.Arr [])
  |> Json.to_list
  |> List.concat_map (fun t ->
         match Json.str_member "name" t with
         | None -> []
         | Some target ->
           Json.member "values" t
           |> Option.value ~default:(Json.Arr [])
           |> Json.to_list
           |> List.filter_map (fun v ->
                  match (Json.str_member "name" v, Json.num_member "value" v) with
                  | Some metric, Some value -> Some (target ^ "/" ^ metric, value)
                  | _ -> None))

(* Explicit per-metric improvement directions ("up"/"down"), flattened
   to "target/metric" like [collect_values].  Empty for old reports. *)
let collect_directions doc =
  Json.member "targets" doc
  |> Option.value ~default:(Json.Arr [])
  |> Json.to_list
  |> List.concat_map (fun t ->
         match Json.str_member "name" t with
         | None -> []
         | Some target ->
           Json.member "values" t
           |> Option.value ~default:(Json.Arr [])
           |> Json.to_list
           |> List.filter_map (fun v ->
                  match (Json.str_member "name" v, Json.str_member "direction" v) with
                  | Some metric, Some "up" -> Some (target ^ "/" ^ metric, true)
                  | Some metric, Some "down" -> Some (target ^ "/" ^ metric, false)
                  | _ -> None))

(* Entries present in only one report are skipped, but silently losing a
   target (a rename, a dropped kernel) is exactly what a baseline diff
   should surface — warn on stderr in both directions.  Warnings are
   non-fatal by default; --strict turns a non-zero count into a failing
   exit. *)
let warnings = ref 0

let warn fmt =
  Printf.ksprintf
    (fun msg ->
      incr warnings;
      Printf.eprintf "compare: warning: %s\n" msg)
    fmt

let warn_one_sided ~kind old_entries new_entries =
  let missing_from other = List.filter (fun (n, _) -> not (List.mem_assoc n other)) in
  List.iter
    (fun (name, _) -> warn "%s %S only in baseline report" kind name)
    (missing_from new_entries old_entries);
  List.iter
    (fun (name, _) -> warn "%s %S only in candidate report" kind name)
    (missing_from old_entries new_entries)

let paired ~kind ~floor ?(direction = fun _ -> false) old_entries new_entries =
  warn_one_sided ~kind old_entries new_entries;
  List.filter_map
    (fun (name, old_v) ->
      Option.map
        (fun new_v -> { name; old_v; new_v; floor; higher_better = direction name })
        (List.assoc_opt name new_entries))
    old_entries

let verdict ~threshold r =
  if flagged ~threshold r then if !exact then "CHANGED" else "REGRESSION"
  else if badness r < -.threshold && Float.abs (r.new_v -. r.old_v) > r.floor then
    "improved"
  else "ok"

let print_section ~title ~unit ~threshold rows =
  if rows <> [] then
    Table.print ~title
      ~columns:[ "name"; "old " ^ unit; "new " ^ unit; "change"; "verdict" ]
      ~rows:
        (List.map
           (fun r ->
             [
               r.name;
               Table.fmt_float ~decimals:3 r.old_v;
               Table.fmt_float ~decimals:3 r.new_v;
               Printf.sprintf "%+.1f%%" (pct r);
               verdict ~threshold r;
             ])
           rows)

let contains hay needle =
  let lm = String.length needle and n = String.length hay in
  let rec scan i = i + lm <= n && (String.sub hay i lm = needle || scan (i + 1)) in
  lm = 0 || scan 0

let () =
  let threshold = ref 10. in
  let strict = ref false in
  let filters = ref [] in
  let excludes = ref [] in
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t > 0. -> threshold := t
      | _ ->
        prerr_endline "compare: --threshold expects a positive number";
        exit 2);
      parse rest
    | "--strict" :: rest ->
      strict := true;
      parse rest
    | "--exact" :: rest ->
      exact := true;
      parse rest
    | "--filter" :: v :: rest ->
      filters := v :: !filters;
      parse rest
    | "--exclude" :: v :: rest ->
      excludes := v :: !excludes;
      parse rest
    | [ ("--threshold" | "--filter" | "--exclude") ] ->
      prerr_endline "compare: flag is missing its argument";
      exit 2
    | a :: rest ->
      positional := a :: !positional;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let old_path, new_path =
    match List.rev !positional with
    | [ a; b ] -> (a, b)
    | _ ->
      prerr_endline
        "usage: compare BASELINE.json CANDIDATE.json [--threshold PCT] [--strict] \
         [--exact] [--filter SUBSTR]... [--exclude SUBSTR]...";
      exit 2
  in
  let selected name =
    (match !filters with [] -> true | fs -> List.exists (contains name) fs)
    && not (List.exists (contains name) !excludes)
  in
  let restrict entries = List.filter (fun (name, _) -> selected name) entries in
  let load path =
    try Json.of_file path with
    | Sys_error e ->
      Printf.eprintf "compare: %s\n" e;
      exit 2
    | Json.Parse_error e ->
      Printf.eprintf "compare: %s: %s\n" path e;
      exit 2
  in
  let old_doc = load old_path and new_doc = load new_path in
  let walls =
    paired ~kind:"target" ~floor:wall_floor
      (restrict (collect_walls old_doc))
      (restrict (collect_walls new_doc))
  in
  let micros =
    paired ~kind:"kernel" ~floor:0.
      (restrict (collect_micros old_doc))
      (restrict (collect_micros new_doc))
  in
  (* The candidate report's explicit direction wins (it reflects the
     current bench), then the baseline's, then the name heuristic for
     metrics neither report annotates (pre-direction reports). *)
  let old_dirs = collect_directions old_doc and new_dirs = collect_directions new_doc in
  let direction name =
    match (List.assoc_opt name new_dirs, List.assoc_opt name old_dirs) with
    | Some d, Some od ->
      (* A silent flip would invert what counts as a regression for this
         metric — keep preferring the candidate (it reflects the current
         bench) but say so. *)
      if d <> od then
        warn
          "reports disagree on direction of %S (baseline %s, candidate %s); \
           using the candidate's"
          name
          (if od then "up" else "down")
          (if d then "up" else "down");
      d
    | Some d, None | None, Some d -> d
    | None, None -> metric_higher_better name
  in
  let values =
    paired ~kind:"metric" ~floor:0. ~direction
      (restrict (collect_values old_doc))
      (restrict (collect_values new_doc))
  in
  if walls = [] && micros = [] && values = [] then begin
    prerr_endline "compare: no common targets or kernels between the two reports";
    exit 2
  end;
  print_section ~title:"wall-clock targets" ~unit:"s" ~threshold:!threshold walls;
  print_section ~title:"metric values" ~unit:"value" ~threshold:!threshold values;
  print_section ~title:"micro kernels" ~unit:"ns" ~threshold:!threshold micros;
  let regressions =
    List.filter (flagged ~threshold:!threshold) (walls @ values @ micros)
  in
  if regressions <> [] then begin
    if !exact then Printf.printf "\n%d value(s) changed:\n" (List.length regressions)
    else
      Printf.printf "\n%d regression(s) beyond +%.0f%%:\n" (List.length regressions)
        !threshold;
    List.iter (fun r -> Printf.printf "  %s: %+.1f%%\n" r.name (pct r)) regressions;
    exit 1
  end
  else if !strict && !warnings > 0 then begin
    Printf.printf
      "\nno regressions beyond +%.0f%%, but %d warning(s) under --strict\n"
      !threshold !warnings;
    exit 1
  end
  else if !exact then print_endline "\nevery value unchanged"
  else Printf.printf "\nno regressions beyond +%.0f%%\n" !threshold
