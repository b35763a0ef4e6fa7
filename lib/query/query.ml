module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Moments = Pgrid_stats.Moments
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

module Maintenance = Pgrid_core.Maintenance

type batch_stats = {
  issued : int;
  routed : int;
  found : int;
  mean_hops : float;
  max_hops : int;
  heal_retries : int;
  evicted_refs : int;
}

(* Synchronous batches have no transport delay of their own; [now] lets
   a daemon-driven caller thread its sim clock through so emitted
   [Query_complete] latencies are real.  The default freezes the clock
   at 0, keeping traces from clock-less callers replay-identical. *)
let zero_clock () = 0.

let lookup_batch ?(telemetry = Pgrid_telemetry.Global.get ())
    ?(now = zero_clock) ?(heal = false) rng overlay ~keys ~count =
  if Array.length keys = 0 then invalid_arg "Query.lookup_batch: no keys";
  if count < 1 then invalid_arg "Query.lookup_batch: count must be >= 1";
  let hops = Moments.create () in
  let issued = ref 0 in
  let routed = ref 0 and found = ref 0 and max_hops = ref 0 in
  let heal_retries = ref 0 and evicted = ref 0 in
  (* A kill wave can leave nobody to originate from: [0] queries issued
     is a partial result, not an error — and checking once up front
     avoids burning [4n] rejection draws per requested query. *)
  let want = if Overlay.online_count overlay = 0 then 0 else count in
  for qid = 1 to want do
    let origin = Overlay.random_online overlay rng ~excluding:(-1) in
    if origin >= 0 then begin
      incr issued;
      let key = keys.(Rng.int rng (Array.length keys)) in
      if Telemetry.active telemetry then
        Telemetry.emit telemetry (Event.Query_issue { qid; origin });
      let issued_at = now () in
      let first = Overlay.search overlay ~from:origin key in
      let r =
        (* Correction on use: a dead end names the peer and level that
           failed — evict that level's offline references, refill it,
           and give the lookup one more try. *)
        match (heal, first.Overlay.responsible, first.Overlay.dead_end) with
        | true, None, Some (peer, level) ->
          let n = Maintenance.correct_on_use ~telemetry rng overlay ~peer ~level in
          evicted := !evicted + n;
          incr heal_retries;
          Overlay.search overlay ~from:origin key
        | _ -> first
      in
      let success = r.Overlay.responsible <> None in
      if Telemetry.active telemetry then
        Telemetry.emit telemetry
          (Event.Query_complete
             { qid; origin; hops = r.Overlay.hops; latency = now () -. issued_at;
               success });
      (match r.Overlay.responsible with
      | Some _ ->
        incr routed;
        if r.Overlay.key_present then incr found;
        Moments.add hops (float_of_int r.Overlay.hops);
        if r.Overlay.hops > !max_hops then max_hops := r.Overlay.hops
      | None -> ())
    end
  done;
  {
    issued = !issued;
    routed = !routed;
    found = !found;
    mean_hops = Moments.mean hops;
    max_hops = !max_hops;
    heal_retries = !heal_retries;
    evicted_refs = !evicted;
  }

type range_stats = {
  ranges : int;
  mean_partitions : float;
  mean_hops : float;
  mean_results : float;
}

let range_batch ?(telemetry = Pgrid_telemetry.Global.get ()) ?(now = zero_clock)
    rng overlay ~count ~width =
  if count < 1 then invalid_arg "Query.range_batch: count must be >= 1";
  if not (width > 0. && width <= 1.) then invalid_arg "Query.range_batch: bad width";
  let partitions = Moments.create () in
  let hops = Moments.create () in
  let results = Moments.create () in
  let issued = ref 0 in
  (* Same partial-result discipline as [lookup_batch]: with nobody
     online there is nothing to originate from — report [0] ranges
     without burning [4n] rejection draws per requested query, and only
     count the queries actually issued. *)
  let want = if Overlay.online_count overlay = 0 then 0 else count in
  for qid = 1 to want do
    let origin = Overlay.random_online overlay rng ~excluding:(-1) in
    if origin >= 0 then begin
      incr issued;
      let start = Rng.float rng *. (1. -. width) in
      (* [start + width] can round one ulp past the intended right edge
         (or past 1.0 when width = 1); clamp before discretizing. *)
      let hi_f = Float.min (start +. width) 1. in
      let lo = Key.of_float start and hi = Key.of_float hi_f in
      if Telemetry.active telemetry then
        Telemetry.emit telemetry (Event.Query_issue { qid; origin });
      let issued_at = now () in
      let r = Overlay.range_search overlay ~from:origin ~lo ~hi in
      if Telemetry.active telemetry then
        Telemetry.emit telemetry
          (Event.Query_complete
             { qid; origin; hops = r.Overlay.total_hops;
               latency = now () -. issued_at;
               success = r.Overlay.visited <> [] });
      Moments.add partitions (float_of_int (List.length r.Overlay.visited));
      Moments.add hops (float_of_int r.Overlay.total_hops);
      Moments.add results (float_of_int (List.length r.Overlay.matches))
    end
  done;
  {
    ranges = !issued;
    mean_partitions = Moments.mean partitions;
    mean_hops = Moments.mean hops;
    mean_results = Moments.mean results;
  }

type conjunctive_result = {
  matches : string list;
  resolved : int;
  total_hops : int;
}

(* True k-way sorted-merge intersection over duplicate-free ascending
   arrays: hold a candidate (the max of the current heads), advance
   every cursor to >= it, restart the round whenever someone overshoots,
   emit when all k agree.  Each cursor only ever moves forward, so the
   whole intersection is O(sum of lengths) comparisons — no intermediate
   lists, unlike a pairwise fold. *)
let k_way_intersect arrs =
  match arrs with
  | [] -> []
  | [ a ] -> Array.to_list a
  | arrs ->
    let arrs = Array.of_list arrs in
    let k = Array.length arrs in
    let idx = Array.make k 0 in
    let out = ref [] in
    (try
       if Array.exists (fun a -> Array.length a = 0) arrs then raise Exit;
       let candidate = ref arrs.(0).(0) in
       while true do
         let agreed = ref true in
         for i = 0 to k - 1 do
           let a = arrs.(i) in
           while
             idx.(i) < Array.length a && compare a.(idx.(i)) !candidate < 0
           do
             idx.(i) <- idx.(i) + 1
           done;
           if idx.(i) >= Array.length a then raise Exit;
           if compare a.(idx.(i)) !candidate > 0 then begin
             (* Overshot: a bigger candidate; the next round re-aligns
                the cursors already past the old one (they never move
                back). *)
             candidate := a.(idx.(i));
             agreed := false
           end
         done;
         if !agreed then begin
           out := !candidate :: !out;
           idx.(0) <- idx.(0) + 1;
           if idx.(0) >= Array.length arrs.(0) then raise Exit;
           candidate := arrs.(0).(idx.(0))
         end
       done
     with Exit -> ());
    List.rev !out

let conjunctive ?(telemetry = Pgrid_telemetry.Global.get ()) ?(now = zero_clock)
    overlay ~from keys =
  if keys = [] then invalid_arg "Query.conjunctive: no keys";
  let resolved = ref 0 and hops = ref 0 in
  let postings =
    List.mapi
      (fun qid k ->
        if Telemetry.active telemetry then
          Telemetry.emit telemetry (Event.Query_issue { qid; origin = from });
        let issued_at = now () in
        let r = Overlay.search overlay ~from k in
        hops := !hops + r.Overlay.hops;
        if Telemetry.active telemetry then
          Telemetry.emit telemetry
            (Event.Query_complete
               { qid; origin = from; hops = r.Overlay.hops;
                 latency = now () -. issued_at;
                 success = r.Overlay.responsible <> None });
        match r.Overlay.responsible with
        | Some _ ->
          incr resolved;
          Some (List.sort_uniq compare r.Overlay.payloads)
        | None -> None)
      keys
  in
  (* Unresolved keys contribute nothing: intersecting their (vacuously
     empty) posting list would annihilate the whole result on a single
     routing failure. *)
  (* Decorate with the length once — computing [List.length] inside the
     comparator recomputes an O(n) walk O(k log k) times — and put the
     shortest list first so the k-way candidate starts from the
     sparsest stream. *)
  let matches =
    List.filter_map Fun.id postings
    |> List.map (fun l -> (List.length l, l))
    |> List.sort (fun (la, _) (lb, _) -> compare la lb)
    |> List.map (fun (_, l) -> Array.of_list l)
    |> k_way_intersect
  in
  { matches; resolved = !resolved; total_hops = !hops }
