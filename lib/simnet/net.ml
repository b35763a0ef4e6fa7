module Rng = Pgrid_prng.Rng
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

type kind = Maintenance | Query

type fate = { drop : bool; copies : int; delay_factor : float }

type overload_config = {
  service_rate : float;
  queue_capacity : int;
  query_threshold : int;
}

let default_overload = { service_rate = 2.; queue_capacity = 16; query_threshold = 12 }

(* Bounded per-peer service queues. The head of a non-empty queue is the
   message currently in service, so the admission check compares the raw
   queue length against the class threshold. Draining is deterministic
   (one message every [1 / service_rate] seconds) and consumes no RNG
   draws, which keeps every legacy trace byte-identical when the model
   is switched off. *)
type 'msg service = {
  cfg : overload_config;
  queues : (int * kind * 'msg) Queue.t array;
  draining : bool array;
  mutable shed_maintenance : int;
  mutable shed_query : int;
  mutable backlog_total : int;
  mutable peak : int;
}

(* Per-bucket traffic totals as a flat array indexed by bucket number,
   grown geometrically: accounting a message is two array reads and a
   write, where the Hashtbl it replaces allocated an option per lookup
   and a bucket record per insert — once per simulated message. *)
type buckets = { mutable bytes : float array; mutable used : int }

(* One message in transit.  An envelope's [arrive] closure is built once,
   when the envelope is made; after delivery the envelope returns to the
   network's pool and carries the next message, so sending schedules a
   closure that already exists.  A pooled envelope keeps its last
   message until it is reused. *)
type 'msg envelope = {
  mutable src : int;
  mutable dst : int;
  mutable kind : kind;
  mutable msg : 'msg;
  arrive : unit -> unit;
}

type 'msg t = {
  sim : Sim.t;
  rng : Rng.t;
  node_count : int;
  latency : Latency.model;
  loss : float;
  bucket : float;
  online : bool array;
  tel : Telemetry.t;
  mutable handler : int -> 'msg -> unit;
  maintenance : buckets;
  query : buckets;
  mutable sent : int;
  mutable dropped : int;
  mutable fault : (src:int -> dst:int -> fate) option;
  service : 'msg service option;
  mutable pool : 'msg envelope array;  (* [pool.(0 .. pooled - 1)] are free *)
  mutable pooled : int;
}

let create ?(telemetry = Pgrid_telemetry.Global.get ()) ?service sim rng ~nodes
    ~latency ~loss ~bucket =
  if nodes < 1 then invalid_arg "Net.create: nodes must be >= 1";
  if not (loss >= 0. && loss < 1.) then invalid_arg "Net.create: loss must be in [0, 1)";
  if not (bucket > 0.) then invalid_arg "Net.create: bucket must be positive";
  let service =
    match service with
    | None -> None
    | Some cfg ->
      if not (cfg.service_rate > 0.) then
        invalid_arg "Net.create: service_rate must be positive";
      if cfg.queue_capacity < 1 then
        invalid_arg "Net.create: queue_capacity must be >= 1";
      if cfg.query_threshold < 1 || cfg.query_threshold > cfg.queue_capacity then
        invalid_arg "Net.create: query_threshold must be in [1, queue_capacity]";
      Some
        {
          cfg;
          queues = Array.init nodes (fun _ -> Queue.create ());
          draining = Array.make nodes false;
          shed_maintenance = 0;
          shed_query = 0;
          backlog_total = 0;
          peak = 0;
        }
  in
  {
    sim;
    rng;
    node_count = nodes;
    latency;
    loss;
    bucket;
    online = Array.make nodes true;
    tel = telemetry;
    handler = (fun _ _ -> ());
    maintenance = { bytes = Array.make 256 0.; used = 0 };
    query = { bytes = Array.make 256 0.; used = 0 };
    sent = 0;
    dropped = 0;
    fault = None;
    service;
    pool = [||];
    pooled = 0;
  }

let sim t = t.sim
let nodes t = t.node_count
let base_loss t = t.loss
let set_fault t f = t.fault <- f
let set_handler t h = t.handler <- h
let online t i = t.online.(i)
let set_online t i v = t.online.(i) <- v

let online_count t =
  Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 t.online

let table t = function Maintenance -> t.maintenance | Query -> t.query
let traffic = function Maintenance -> Event.Maintenance | Query -> Event.Query

(* [account] without its optional arguments, for the send path. *)
let account_link t ~src ~dst ~bytes ~kind =
  let tbl = table t kind in
  let idx = int_of_float (Sim.now t.sim /. t.bucket) in
  if idx >= Array.length tbl.bytes then begin
    let grown = Array.make (max (idx + 1) (2 * Array.length tbl.bytes)) 0. in
    Array.blit tbl.bytes 0 grown 0 tbl.used;
    tbl.bytes <- grown
  end;
  tbl.bytes.(idx) <- tbl.bytes.(idx) +. float_of_int bytes;
  if idx >= tbl.used then tbl.used <- idx + 1;
  if Telemetry.active t.tel then
    Telemetry.emit t.tel (Event.Msg_send { src; dst; bytes; traffic = traffic kind })

let account ?(src = -1) ?(dst = -1) t ~bytes ~kind = account_link t ~src ~dst ~bytes ~kind

let note_drop t ~src ~dst =
  t.dropped <- t.dropped + 1;
  if Telemetry.active t.tel then Telemetry.emit t.tel (Event.Msg_drop { src; dst })

let note_shed t s ~src ~dst ~kind ~backlog =
  (match kind with
  | Maintenance -> s.shed_maintenance <- s.shed_maintenance + 1
  | Query -> s.shed_query <- s.shed_query + 1);
  if Telemetry.active t.tel then
    Telemetry.emit t.tel (Event.Msg_shed { src; dst; traffic = traffic kind; backlog })

let rec drain t s dst =
  Sim.schedule t.sim ~delay:(1. /. s.cfg.service_rate) (fun () ->
      let src, _, msg = Queue.pop s.queues.(dst) in
      s.backlog_total <- s.backlog_total - 1;
      if t.online.(dst) then begin
        if Telemetry.active t.tel then
          Telemetry.emit t.tel (Event.Msg_recv { src; dst });
        t.handler dst msg
      end
      else
        (* The peer went offline while the message waited: its service
           slot still elapses, but the work is lost. *)
        note_drop t ~src ~dst;
      if Queue.is_empty s.queues.(dst) then s.draining.(dst) <- false
      else drain t s dst)

(* Arrival at the destination: either the legacy unbounded hand-off to
   the handler, or admission into the bounded service queue. *)
let arrive t ~src ~dst ~kind msg =
  match t.service with
  | None ->
    if t.online.(dst) then begin
      if Telemetry.active t.tel then
        Telemetry.emit t.tel (Event.Msg_recv { src; dst });
      t.handler dst msg
    end
    else note_drop t ~src ~dst
  | Some s ->
    if not t.online.(dst) then note_drop t ~src ~dst
    else begin
      let backlog = Queue.length s.queues.(dst) in
      let limit =
        match kind with
        | Query -> s.cfg.query_threshold
        | Maintenance -> s.cfg.queue_capacity
      in
      if backlog >= limit then note_shed t s ~src ~dst ~kind ~backlog
      else begin
        Queue.push (src, kind, msg) s.queues.(dst);
        s.backlog_total <- s.backlog_total + 1;
        if backlog + 1 > s.peak then s.peak <- backlog + 1;
        if not s.draining.(dst) then begin
          s.draining.(dst) <- true;
          drain t s dst
        end
      end
    end

(* The envelope goes back to the pool before the message is handed on,
   so the sends its handler makes can take it. *)
let land_envelope t e =
  let src = e.src and dst = e.dst and kind = e.kind and msg = e.msg in
  if t.pooled = Array.length t.pool then begin
    let pool = Array.make (max 16 (2 * t.pooled)) e in
    Array.blit t.pool 0 pool 0 t.pooled;
    t.pool <- pool
  end;
  t.pool.(t.pooled) <- e;
  t.pooled <- t.pooled + 1;
  arrive t ~src ~dst ~kind msg

let envelope t ~src ~dst ~kind msg =
  if t.pooled = 0 then
    let rec e = { src; dst; kind; msg; arrive = (fun () -> land_envelope t e) } in
    e
  else begin
    t.pooled <- t.pooled - 1;
    let e = t.pool.(t.pooled) in
    e.src <- src;
    e.dst <- dst;
    e.kind <- kind;
    e.msg <- msg;
    e
  end

let deliver t ~src ~dst ~kind ~factor msg =
  let delay = Latency.sample t.latency t.rng *. factor in
  Sim.schedule t.sim ~delay (envelope t ~src ~dst ~kind msg).arrive

let send t ~src ~dst ~bytes ~kind msg =
  if src < 0 || src >= t.node_count || dst < 0 || dst >= t.node_count then
    invalid_arg "Net.send: node id out of range";
  if not t.online.(src) then
    (* The radio is off: the message never makes the wire, but traces must
       still see the attempt or traffic under churn is under-counted. *)
    note_drop t ~src ~dst
  else begin
    account_link t ~src ~dst ~bytes ~kind;
    t.sent <- t.sent + 1;
    match t.fault with
    | None ->
      if Rng.bernoulli t.rng t.loss then note_drop t ~src ~dst
      else deliver t ~src ~dst ~kind ~factor:1. msg
    | Some fate_of ->
      (* The fault layer owns the loss decision (it folds base loss into
         its own seeded process), so no draw from [t.rng] here. *)
      let fate = fate_of ~src ~dst in
      if fate.drop then note_drop t ~src ~dst
      else
        for _ = 1 to max 1 fate.copies do
          deliver t ~src ~dst ~kind ~factor:fate.delay_factor msg
        done
  end

let bandwidth t kind =
  (* Buckets that saw no traffic produce no series point, matching the
     absent-entry behaviour of the hash table this replaces (every
     accounted message carries a positive byte count). *)
  let tbl = table t kind in
  let acc = ref [] in
  for idx = tbl.used - 1 downto 0 do
    let bytes = tbl.bytes.(idx) in
    if bytes > 0. then
      acc := ((float_of_int idx +. 0.5) *. t.bucket, bytes /. t.bucket) :: !acc
  done;
  !acc

let messages_sent t = t.sent
let messages_dropped t = t.dropped

let messages_shed t =
  match t.service with None -> 0 | Some s -> s.shed_maintenance + s.shed_query

let shed_of_kind t kind =
  match t.service with
  | None -> 0
  | Some s -> ( match kind with Maintenance -> s.shed_maintenance | Query -> s.shed_query)

let backlog t = match t.service with None -> 0 | Some s -> s.backlog_total
let queue_peak t = match t.service with None -> 0 | Some s -> s.peak
