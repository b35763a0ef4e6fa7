module Rng = Pgrid_prng.Rng
module Sample = Pgrid_prng.Sample
module Key = Pgrid_keyspace.Key
module Reference = Pgrid_partition.Reference
module Distribution = Pgrid_workload.Distribution
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Deviation = Pgrid_core.Deviation
module Moments = Pgrid_stats.Moments
module Maintenance = Pgrid_core.Maintenance
module Txn = Pgrid_core.Txn
module Sim = Pgrid_simnet.Sim
module Net = Pgrid_simnet.Net
module Latency = Pgrid_simnet.Latency
module Unstructured = Pgrid_simnet.Unstructured
module Churn = Pgrid_simnet.Churn
module Fault = Pgrid_simnet.Fault
module Storm = Pgrid_query.Storm
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

type phases = {
  join_end : float;
  replicate_start : float;
  construct_start : float;
  construct_end : float;
  query_start : float;
  churn_start : float;
  end_time : float;
}

let default_robust =
  {
    Storm.default_config with
    req_timeout = 2.;
    jitter = 0.2;
    max_retries = 3;
    evict_after = Some 2;
  }

(* The deployment's fixed constants, after the paper's PlanetLab run. *)
let keys_per_peer = 10
let n_min = 5
let d_max = 50
let degree = 4 (* unstructured overlay degree *)
let walk_steps = 8 (* random-walk length for peer sampling *)
let loss = 0.02
let bucket = 60. (* bandwidth bucket, seconds *)
let header_bytes = Storm.header_bytes
let key_bytes = 64
let retry_timeout = 2. (* legacy walk's penalty per dead reference *)

(* The transaction workload: a document every 10 s (mean) under 3-6
   keys, and a recovery pass every 60 s. *)
let doc_interval = 10.
let keys_min = 3
let keys_max = 6
let recover_period = 60.

let engine_config =
  { Engine.n_min; d_max; max_fruitless = 2; refer_hops = 20; mode = Engine.Theory }

type params = {
  peers : int;
  initiate_mean : float;
  ping_interval : float;
  query_min : float;
  query_max : float;
  phases : phases;
  churn : Churn.params option;
  robust : Storm.config option;
  fault_plan : Fault.plan;
  fault_seed : int;
  maint : Maintenance.daemon_config option;
  txn : bool;
  service : Net.overload_config option;
}

let default_params ~peers =
  {
    peers;
    initiate_mean = 20.;
    ping_interval = 30.;
    query_min = 60.;
    query_max = 120.;
    (* The paper's timeline: minutes 0/45/100/300/430/500. *)
    phases =
      {
        join_end = 6000.;
        replicate_start = 2700.;
        construct_start = 6000.;
        construct_end = 18000.;
        query_start = 18000.;
        churn_start = 25800.;
        end_time = 30000.;
      };
    churn = None;
    robust = None;
    fault_plan = [];
    fault_seed = 0;
    maint = None;
    txn = false;
    service = None;
  }

type query_stats = {
  issued : int;
  succeeded : int;
  failed : int;
  mean_hops : float;
  mean_latency : float;
}

type outcome = {
  overlay : Overlay.t;
  reference : Reference.t;
  deviation : float;
  online_series : (float * int) list;
  maintenance_bw : (float * float) list;
  query_bw : (float * float) list;
  latency_series : (float * float * float) list;
  query_stats : query_stats;
  stats : Overlay.stats;
  counters : Engine.counters;
  messages_sent : int;
  messages_dropped : int;
  messages_shed : int;
  queue_peak : int;
  robust_stats : Storm.stats option;
  fault_stats : Fault.stats option;
  maint_stats : Maintenance.daemon_stats option;
  txn : Txn.t option;
  txn_stats : Txn.stats option;
}

type query_record = { at : float; latency : float; hops : int; success : bool }

(* What [setup] builds before any process is scheduled. *)
type world = {
  params : params;
  ph : phases;
  rng : Rng.t;
  sim : Sim.t;
  tel : Telemetry.t;
  net : Storm.wire Net.t;
  overlay : Overlay.t;
  own_keys : Key.t array array;  (* each peer's keys *)
  all_keys : Key.t array;
  graph : Unstructured.t;
}

(* The construction engine and what else its hooks reach: the hardened
   query path, the fault layer and the transaction manager. *)
type stack = {
  eng : Engine.t;
  storm : (Rng.t * Storm.t) option;
  fault : Fault.t option;
  txn : Txn.t option ref;
      (* filled by [transactions]: made here, its [Rng.split] would move
         ahead of the daemon's *)
  scheduled : bool array;  (* peer [i] has an initiation pending *)
}

let online w i = (Overlay.node w.overlay i).Node.online

let set_online w i v =
  let n = Overlay.node w.overlay i in
  let was = n.Node.online in
  Node.set_online n v;
  Net.set_online w.net i v;
  if was <> v && Telemetry.active w.tel then
    Telemetry.emit w.tel
      (if v then Event.Churn_online { peer = i } else Event.Churn_offline { peer = i })

let setup tel rng params ~spec =
  let sim = Sim.create () in
  (* Telemetry timestamps are simulated seconds for the whole run. *)
  Telemetry.set_clock tel (fun () -> Sim.now sim);
  (* Construction interactions run on shared state, so only their
     accounting and timing flow through the network; queries and
     transaction messages travel as real messages. *)
  let net : Storm.wire Net.t =
    Net.create ~telemetry:tel ?service:params.service sim (Rng.split rng)
      ~nodes:params.peers ~latency:Latency.planetlab ~loss ~bucket
  in
  let overlay = Overlay.create (Rng.split rng) ~n:params.peers in
  let own_keys = Distribution.assign_to_peers rng spec ~peers:params.peers ~keys_per_peer in
  Array.iteri
    (fun i own ->
      let n = Overlay.node overlay i in
      Node.set_online n false;
      Net.set_online net i false;
      Array.iter (Node.ensure_key n) own)
    own_keys;
  let graph = Unstructured.create (Rng.split rng) ~nodes:params.peers ~degree in
  let all_keys =
    Array.to_list own_keys
    |> List.concat_map Array.to_list
    |> List.sort_uniq Key.compare
    |> Array.of_list
  in
  { params; ph = params.phases; rng; sim; tel; net; overlay; own_keys; all_keys; graph }

(* Peer [i]'s initiations: one every exponential [initiate_mean] s while
   construction runs and [i] stays active. *)
let rec arm_initiation w c i =
  c.scheduled.(i) <- true;
  Sim.schedule w.sim
    ~delay:(Sample.exponential w.rng ~rate:(1. /. w.params.initiate_mean))
    (fun () -> initiate w c i)

and initiate w c i =
  c.scheduled.(i) <- false;
  if Sim.now w.sim < w.ph.construct_end && Engine.is_active c.eng i then begin
    if online w i then Engine.interact c.eng i;
    if Engine.is_active c.eng i then arm_initiation w c i
  end

let wire_construction w =
  (* The engine's hooks restart initiation processes and consult the
     fault layer, and both of those call the engine: the hooks read
     [reactivate] and [fault] once the engine exists.  Until the fault
     plan is installed every contact is admitted. *)
  let reactivate = ref ignore and fault = ref None in
  let hooks =
    {
      Engine.on_contact =
        (fun ~src ~dst ->
          Net.account ~src ~dst w.net ~bytes:(2 * header_bytes) ~kind:Net.Maintenance);
      on_key_moved =
        (fun ~src ~dst -> Net.account ~src ~dst w.net ~bytes:key_bytes ~kind:Net.Maintenance);
      on_reactivate = (fun i -> !reactivate i);
      contact_ok =
        (fun ~src ~dst ->
          match !fault with None -> true | Some f -> Fault.admits f ~src ~dst);
    }
  in
  let eng = Engine.create ~telemetry:w.tel (Rng.split w.rng) engine_config w.overlay hooks in
  (* Transaction messages run their delivery closure on arrival; a
     storm's handler, installed next, runs them as well. *)
  Net.set_handler w.net (fun _ -> function
    | Storm.Deliver deliver -> deliver ()
    | Storm.Req _ | Storm.Resp _ -> ());
  let params = w.params in
  (* Queries hop as Req/Resp round trips through a [Storm] on a split of
     its own, made only off the legacy path (no robust config, no fault
     plan). *)
  let storm =
    if params.robust = None && params.fault_plan = [] then None
    else
      let rrng = Rng.split w.rng in
      Some
        ( rrng,
          Storm.create ~telemetry:w.tel w.sim rrng w.overlay w.net
            (Option.value params.robust ~default:default_robust) )
  in
  let txn = ref None in
  fault :=
    if params.fault_plan = [] then None
    else
      Some
        (Fault.install ~telemetry:w.tel
           ~on_crash:(fun i ->
             Engine.note_crash eng i;
             Option.iter (fun m -> Txn.note_crash m i) !txn;
             set_online w i false)
           ~on_restart:(fun i ->
             set_online w i true;
             (* Fresh volatile state: the peer re-enters construction. *)
             Engine.note_useful eng i)
           w.net ~seed:params.fault_seed params.fault_plan);
  let c = { eng; storm; fault = !fault; txn; scheduled = Array.make params.peers false } in
  (reactivate :=
     fun i ->
       let now = Sim.now w.sim in
       if (not c.scheduled.(i)) && now >= w.ph.construct_start && now < w.ph.construct_end
       then arm_initiation w c i);
  c

let joins_and_replication w =
  Array.iteri
    (fun i _ ->
      let join_at = Sample.uniform w.rng ~lo:1. ~hi:w.ph.join_end in
      Sim.schedule_at w.sim ~time:join_at (fun () ->
          set_online w i true;
          (* Bootstrap handshake. *)
          Net.account ~src:i w.net ~bytes:(3 * header_bytes) ~kind:Net.Maintenance))
    w.own_keys;
  (* Each peer copies its keys to [n_min] random-walk targets. *)
  Array.iteri
    (fun i own ->
      let at =
        Sample.uniform w.rng ~lo:(Float.max w.ph.replicate_start 2.) ~hi:w.ph.construct_start
      in
      Sim.schedule_at w.sim ~time:at (fun () ->
          if online w i then begin
            let seen = Hashtbl.create 8 in
            let attempts = ref 0 in
            while Hashtbl.length seen < n_min && !attempts < 8 * n_min do
              incr attempts;
              let target =
                Unstructured.random_walk w.graph w.rng ~online:(online w) ~start:i
                  ~steps:walk_steps
              in
              if target <> i && online w target then Hashtbl.replace seen target ()
            done;
            Hashtbl.iter
              (fun target () ->
                Net.account ~src:i ~dst:target w.net
                  ~bytes:((walk_steps * header_bytes) + (Array.length own * key_bytes))
                  ~kind:Net.Maintenance;
                Array.iter (Node.ensure_key (Overlay.node w.overlay target)) own)
              seen
          end))
    w.own_keys

let start_construction w c =
  Array.iteri
    (fun i _ ->
      Sim.schedule_at w.sim
        ~time:(w.ph.construct_start +. Sample.uniform w.rng ~lo:0. ~hi:60.)
        (fun () -> initiate w c i))
    w.own_keys

let pings w =
  let interval = w.params.ping_interval in
  Array.iteri
    (fun i _ ->
      Sim.every w.sim ~at:(Sample.uniform w.rng ~lo:0. ~hi:interval) ~until:w.ph.end_time
        ~period:(fun () -> interval)
        (fun () ->
          if online w i then Net.account ~src:i w.net ~bytes:header_bytes ~kind:Net.Maintenance))
    w.own_keys

(* The legacy query model: route hop by hop, where a dead reference
   costs a flat [retry_timeout] and the next one is tried.  Not an
   [Overlay.walk]: each hop is shuffle-then-try over
   [Overlay.shuffled_refs], and every message draws its latency.  The
   walk is synchronous and never returns to a hop it has left, so every
   hop of every query shuffles into the one buffer [buf]. *)
let legacy_query w buf ~qid origin key =
  let issued_at = Sim.now w.sim in
  if Telemetry.active w.tel then Telemetry.emit w.tel (Event.Query_issue { qid; origin });
  let latency = ref 0. and hops = ref 0 in
  let send_msg ?src ?dst () =
    Net.account ?src ?dst w.net ~bytes:header_bytes ~kind:Net.Query;
    latency := !latency +. Latency.sample Latency.planetlab w.rng
  in
  let rec route cur budget =
    budget > 0
    &&
    let n = Overlay.node w.overlay cur in
    match Overlay.divergence_level n.Node.path key with
    | None -> true (* responsible peer reached *)
    | Some level ->
      let need = Node.refs_count n ~level in
      if need > Array.length !buf then buf := Array.make (max need (2 * Array.length !buf)) 0;
      let refs = !buf in
      let len = Overlay.shuffled_refs w.rng n ~level refs in
      let rec try_refs idx =
        idx < len
        &&
        let next = refs.(idx) in
        send_msg ~src:cur ~dst:next ();
        if Telemetry.active w.tel then
          Telemetry.emit w.tel (Event.Query_hop { qid; src = cur; dst = next });
        incr hops;
        if online w next then route next (budget - 1)
        else begin
          (* Timeout, then retry an alternative reference. *)
          latency := !latency +. retry_timeout;
          try_refs (idx + 1)
        end
      in
      try_refs 0
  in
  let success = route origin Overlay.max_relay_hops in
  (* The response travels straight back to the origin. *)
  if success then send_msg ~dst:origin ();
  if Telemetry.active w.tel then
    Telemetry.emit w.tel
      (Event.Query_complete { qid; origin; hops = !hops; latency = !latency; success });
  { at = issued_at; latency = !latency; hops = !hops; success }

(* Every online peer queries a random key every [query_min, query_max]
   seconds; returns the legacy walk's records, newest first. *)
let queries w c =
  let log = ref [] and next_qid = ref 0 and buf = ref (Array.make 16 0) in
  let n_keys = Array.length w.all_keys in
  let issue =
    match c.storm with
    | Some (rrng, storm) ->
      fun origin -> Storm.issue storm ~origin ~key:w.all_keys.(Rng.int rrng n_keys)
    | None ->
      fun origin ->
        let key = w.all_keys.(Rng.int w.rng n_keys) in
        let qid = !next_qid in
        incr next_qid;
        log := legacy_query w buf ~qid origin key :: !log
  in
  let p = w.params in
  Array.iteri
    (fun i _ ->
      Sim.every w.sim ~at:(w.ph.query_start +. Sample.uniform w.rng ~lo:0. ~hi:p.query_max)
        ~until:w.ph.end_time
        ~period:(fun () -> Sample.uniform w.rng ~lo:p.query_min ~hi:p.query_max)
        (fun () -> if online w i then issue i))
    w.own_keys;
  log

(* Gated like the storm's split: no daemon, no draw. *)
let daemon w c =
  let stats = ref None in
  Option.iter
    (fun cfg ->
      let mrng = Rng.split w.rng in
      Sim.schedule_at w.sim ~time:w.ph.query_start (fun () ->
          (* With the transaction manager, the daemon's health monitor
             audits settled documents for torn writes. *)
          let cfg =
            match (cfg.Maintenance.txn, !(c.txn)) with
            | None, (Some _ as m) -> { cfg with Maintenance.txn = m }
            | _ -> cfg
          in
          stats :=
            Some
              (Maintenance.install_daemon ~telemetry:w.tel ~keys:(fun () -> w.all_keys) w.sim
                 mrng w.overlay ~until:w.ph.end_time cfg)))
    w.params.maint;
  stats

(* Gated like the storm and the daemon: [txn = false] makes no draw. *)
let transactions w c =
  if w.params.txn then begin
    let trng = Rng.split w.rng in
    let transport =
      {
        Txn.send =
          (fun ~phase ~src ~dst ~deliver ->
            let bytes = header_bytes + (match phase with Txn.Prepare -> key_bytes | _ -> 0) in
            Net.send w.net ~src ~dst ~bytes ~kind:Net.Maintenance (Storm.Deliver deliver));
      }
    in
    let mgr = Txn.create ~telemetry:w.tel w.sim (Rng.split trng) w.overlay ~transport in
    c.txn := Some mgr;
    (* Document submissions: a random online coordinator indexes one
       document under [keys_min, keys_max] distinct keys, atomically. *)
    let next_doc = ref 0 and n_keys = Array.length w.all_keys in
    Sim.every w.sim ~at:(w.ph.query_start +. Sample.uniform trng ~lo:0. ~hi:doc_interval)
      ~until:w.ph.end_time
      ~period:(fun () -> Sample.exponential trng ~rate:(1. /. doc_interval))
      (fun () ->
        let coordinator = Rng.int trng w.params.peers in
        let k = min (keys_min + Rng.int trng (keys_max - keys_min + 1)) n_keys in
        let picks = Rng.sample_without_replacement trng ~k ~n:n_keys in
        if online w coordinator then begin
          let doc = Printf.sprintf "doc-%05d" !next_doc in
          incr next_doc;
          Array.to_list picks
          |> List.map (fun i -> Txn.Put { key = w.all_keys.(i); payload = doc })
          |> Txn.submit mgr ~coordinator
          |> ignore
        end);
    Sim.every w.sim ~at:(w.ph.query_start +. recover_period) ~until:w.ph.end_time
      ~period:(fun () -> recover_period)
      (fun () -> ignore (Txn.recover_pass mgr))
  end

let churn w =
  let params =
    match w.params.churn with
    | Some c -> c
    | None -> Churn.paper_params ~start:w.ph.churn_start ~stop:w.ph.end_time
  in
  Churn.install w.sim w.rng params
    ~node_ids:(List.init w.params.peers (fun i -> i))
    ~set_online:(set_online w)

(* Online peers every minute up to [end_time] inclusive, newest first. *)
let sample_population w =
  let series = ref [] in
  Sim.every w.sim ~at:0. ~until:(Float.succ w.ph.end_time) ~period:(fun () -> 60.) (fun () ->
      series := (Sim.now w.sim /. 60., Net.online_count w.net) :: !series);
  series

let evaluate w c ~legacy_log ~online_series ~maint_stats =
  let params = w.params and net = w.net in
  let reference = Reference.compute ~keys:w.all_keys ~peers:params.peers ~d_max ~n_min in
  let queries =
    match c.storm with
    | None -> legacy_log
    | Some (_, storm) ->
      List.map
        (fun { Storm.issued_at; finished_at; hops; success } ->
          { at = issued_at; latency = finished_at -. issued_at; hops; success })
        (Storm.completions storm)
  in
  let successes = List.filter (fun q -> q.success) queries in
  let hops_m = Moments.of_list (List.map (fun q -> float_of_int q.hops) successes) in
  let lat_m = Moments.of_list (List.map (fun q -> q.latency) successes) in
  let query_stats =
    {
      issued = List.length queries;
      succeeded = List.length successes;
      failed = List.length queries - List.length successes;
      mean_hops = Moments.mean hops_m;
      mean_latency = Moments.mean lat_m;
    }
  in
  (* Query latency per 10-minute bucket (successful queries). *)
  let buckets = Hashtbl.create 32 in
  List.iter
    (fun q ->
      let b = 10. *. Float.round (q.at /. 600.) in
      match Hashtbl.find_opt buckets b with
      | Some m -> Moments.add m q.latency
      | None -> Hashtbl.add buckets b (Moments.of_list [ q.latency ]))
    successes;
  let latency_series =
    Hashtbl.fold (fun b m acc -> (b, Moments.mean m, Moments.stddev m) :: acc) buckets []
    |> List.sort compare
  in
  let per_peer series =
    List.map (fun (t, bps) -> (t /. 60., bps /. float_of_int params.peers)) series
  in
  let txn = !(c.txn) in
  {
    overlay = w.overlay;
    reference;
    deviation = Deviation.of_overlay ~reference w.overlay;
    online_series = List.rev online_series;
    maintenance_bw = per_peer (Net.bandwidth net Net.Maintenance);
    query_bw = per_peer (Net.bandwidth net Net.Query);
    latency_series;
    query_stats;
    stats = Overlay.stats w.overlay;
    counters = Engine.counters c.eng;
    messages_sent = Net.messages_sent net;
    messages_dropped = Net.messages_dropped net;
    messages_shed = Net.messages_shed net;
    queue_peak = Net.queue_peak net;
    robust_stats = Option.map (fun (_, storm) -> Storm.stats storm) c.storm;
    fault_stats = Option.map Fault.stats c.fault;
    maint_stats;
    txn;
    txn_stats = Option.map Txn.stats txn;
  }

let run ?(telemetry = Pgrid_telemetry.Global.get ()) rng params ~spec =
  if params.peers < 8 then invalid_arg "Net_engine.run: need at least 8 peers";
  let w = setup telemetry rng params ~spec in
  let c = wire_construction w in
  joins_and_replication w;
  start_construction w c;
  pings w;
  let legacy_log = queries w c in
  let maint_stats = daemon w c in
  transactions w c;
  churn w;
  let online_series = sample_population w in
  (* Let the last churned peers come back online before evaluating. *)
  Sim.run_until w.sim ~time:(w.ph.end_time +. 600.);
  (* Final recovery sweep once the last churned peers are back: resolves
     intents whose disks were unreachable while their peer was down. *)
  Option.iter (fun m -> ignore (Txn.recover_pass m)) !(c.txn);
  evaluate w c ~legacy_log:!legacy_log ~online_series:!online_series
    ~maint_stats:!maint_stats
