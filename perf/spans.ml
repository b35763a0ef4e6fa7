(* Spans around the benchmark's calls into the libraries.

   A span has a name, start and end (monotonic ns), the span that was open
   when it started, and the workload operation it belongs to.  Self time
   (duration minus the part covered by child spans) is folded per name as
   each span closes, so the per-layer totals cover every span; the first
   [keep] spans are also kept in memory for the JSONL trace written at
   exit.

   A recorder created with [~on:false] still times: [enter]/[leave] return
   the clock readings the workloads use for per-operation latency, but
   nothing is folded or kept. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  on : bool;
  keep : int;
  names : (string, int) Hashtbl.t;
  mutable labels : string array;
  mutable self_ns : int array;
  mutable total_ns : int array;
  mutable calls : int array;
  (* open spans, innermost last *)
  mutable depth : int;
  st_name : int array;
  st_id : int array;
  st_start : int array;
  st_child : int array;
  mutable next_id : int;
  (* kept spans, in closing order *)
  mutable kept : (int * int * int * int * int * int) list;
      (* id, name, start, stop, parent, op *)
}

let max_depth = 16

let create ~on ~keep =
  {
    on;
    keep;
    names = Hashtbl.create 32;
    labels = [||];
    self_ns = [||];
    total_ns = [||];
    calls = [||];
    depth = 0;
    st_name = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    next_id = 0;
    kept = [];
  }

let on t = t.on

(* [name t s] interns a span name; call it once, outside hot loops. *)
let name t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Array.length t.labels in
    Hashtbl.add t.names s i;
    t.labels <- Array.append t.labels [| s |];
    t.self_ns <- Array.append t.self_ns [| 0 |];
    t.total_ns <- Array.append t.total_ns [| 0 |];
    t.calls <- Array.append t.calls [| 0 |];
    i

let enter t nm =
  let now = now_ns () in
  if t.on then begin
    let d = t.depth in
    if d = max_depth then invalid_arg "Spans.enter: nesting too deep";
    t.st_name.(d) <- nm;
    t.st_id.(d) <- t.next_id;
    t.st_start.(d) <- now;
    t.st_child.(d) <- 0;
    t.next_id <- t.next_id + 1;
    t.depth <- d + 1
  end;
  now

(* [leave t ~op] closes the innermost span and returns the clock reading
   at its end. *)
let leave t ~op =
  let now = now_ns () in
  if t.on then begin
    let d = t.depth - 1 in
    if d < 0 then invalid_arg "Spans.leave: no open span";
    t.depth <- d;
    let nm = t.st_name.(d) and start = t.st_start.(d) in
    let dur = now - start in
    t.self_ns.(nm) <- t.self_ns.(nm) + dur - t.st_child.(d);
    t.total_ns.(nm) <- t.total_ns.(nm) + dur;
    t.calls.(nm) <- t.calls.(nm) + 1;
    let parent = if d = 0 then -1 else t.st_id.(d - 1) in
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    if t.st_id.(d) < t.keep then
      t.kept <- (t.st_id.(d), nm, start, now, parent, op) :: t.kept
  end;
  now

let span t nm ~op f =
  ignore (enter t nm);
  let r = f () in
  ignore (leave t ~op);
  r

let calls t s = match Hashtbl.find_opt t.names s with Some i -> t.calls.(i) | None -> 0

(* Mean and total span duration of one name, in ns. *)
let total_ns t s = match Hashtbl.find_opt t.names s with Some i -> t.total_ns.(i) | None -> 0

let mean_ns t s =
  let c = calls t s in
  if c = 0 then 0. else float_of_int (total_ns t s) /. float_of_int c

(* Self time per layer (the span name up to its first '.'), descending. *)
let self_by_layer t =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i label ->
      let layer =
        match String.index_opt label '.' with
        | Some j -> String.sub label 0 j
        | None -> label
      in
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl layer) in
      Hashtbl.replace tbl layer (prev + t.self_ns.(i)))
    t.labels;
  Hashtbl.fold (fun l ns acc -> (l, ns) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun (id, nm, start, stop, parent, op) ->
      Printf.fprintf oc
        "{\"span\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n"
        id t.labels.(nm) start stop parent op)
    (List.rev t.kept);
  close_out oc
