module Rng = Pgrid_prng.Rng
module Sample = Pgrid_prng.Sample
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
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

let minutes m = 60. *. m

let paper_phases =
  {
    join_end = minutes 100.;
    replicate_start = minutes 45.;
    construct_start = minutes 100.;
    construct_end = minutes 300.;
    query_start = minutes 300.;
    churn_start = minutes 430.;
    end_time = minutes 500.;
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
    phases = paper_phases;
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

let run ?(telemetry = Pgrid_telemetry.Global.get ()) rng params ~spec =
  if params.peers < 8 then invalid_arg "Net_engine.run: need at least 8 peers";
  let ph = params.phases in
  let sim = Sim.create () in
  let tel = telemetry in
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
  let assignments =
    Distribution.assign_to_peers rng spec ~peers:params.peers ~keys_per_peer
  in
  Array.iteri
    (fun i own ->
      let n = Overlay.node overlay i in
      Node.set_online n false;
      Array.iter (Node.ensure_key n) own)
    assignments;
  let graph = Unstructured.create (Rng.split rng) ~nodes:params.peers ~degree in
  let set_online i v =
    let was = (Overlay.node overlay i).Node.online in
    Node.set_online (Overlay.node overlay i) v;
    Net.set_online net i v;
    if was <> v && Telemetry.active tel then
      Telemetry.emit tel
        (if v then Event.Churn_online { peer = i } else Event.Churn_offline { peer = i })
  in
  Array.iteri (fun i _ -> Net.set_online net i false) assignments;
  let online i = (Overlay.node overlay i).Node.online in
  let account ?src ?dst ~bytes ~kind () = Net.account ?src ?dst net ~bytes ~kind in
  (* --- construction engine wiring ------------------------------------ *)
  let schedule_initiation = ref (fun _ -> ()) in
  (* Filled in once the fault plan (if any) is installed below; until
     then every contact is admitted, exactly as before. *)
  let fault_ref = ref None in
  let hooks =
    {
      Engine.on_contact =
        (fun ~src ~dst ->
          account ~src ~dst ~bytes:(2 * header_bytes) ~kind:Net.Maintenance ());
      on_key_moved =
        (fun ~src ~dst -> account ~src ~dst ~bytes:key_bytes ~kind:Net.Maintenance ());
      on_reactivate = (fun i -> !schedule_initiation i);
      contact_ok =
        (fun ~src ~dst ->
          match !fault_ref with
          | None -> true
          | Some f -> Fault.admits f ~src ~dst);
    }
  in
  let eng = Engine.create ~telemetry:tel (Rng.split rng) engine_config overlay hooks in
  (* --- hardened protocol mode ------------------------------------------ *)
  (* Transaction messages run their delivery closure on arrival; a
     storm's handler, installed next, runs them as well. *)
  Net.set_handler net (fun _ -> function
    | Storm.Deliver deliver -> deliver ()
    | Storm.Req _ | Storm.Resp _ -> ());
  (* Queries hop as Req/Resp round trips through a [Storm] on a split of
     its own.  The split is gated: a legacy run (no robust config, no
     fault plan) consumes exactly the same draw sequence as before this
     mode existed. *)
  let storm =
    if params.robust = None && params.fault_plan = [] then None
    else
      let rrng = Rng.split rng in
      Some
        ( rrng,
          Storm.create ~telemetry:tel sim rrng overlay net
            (Option.value params.robust ~default:default_robust) )
  in
  (* Filled in once the transaction manager (if any) is created below;
     the fault hooks read it at crash time, well after setup. *)
  let txn_mgr = ref None in
  let fault =
    if params.fault_plan = [] then None
    else
      Some
        (Fault.install ~telemetry:tel
           ~on_crash:(fun i ->
             Engine.note_crash eng i;
             Option.iter (fun m -> Txn.note_crash m i) !txn_mgr;
             set_online i false)
           ~on_restart:(fun i ->
             set_online i true;
             (* Fresh volatile state: the peer re-enters construction. *)
             Engine.note_useful eng i)
           net ~seed:params.fault_seed params.fault_plan)
  in
  fault_ref := fault;
  let scheduled = Array.make params.peers false in
  let rec initiation_loop i () =
    scheduled.(i) <- false;
    let now = Sim.now sim in
    if now < ph.construct_end && Engine.is_active eng i then begin
      if online i then Engine.interact eng i;
      if Engine.is_active eng i then begin
        scheduled.(i) <- true;
        Sim.schedule sim ~delay:(Sample.exponential rng ~rate:(1. /. params.initiate_mean))
          (initiation_loop i)
      end
    end
  in
  (schedule_initiation :=
     fun i ->
       if
         (not scheduled.(i))
         && Sim.now sim >= ph.construct_start
         && Sim.now sim < ph.construct_end
       then begin
         scheduled.(i) <- true;
         Sim.schedule sim ~delay:(Sample.exponential rng ~rate:(1. /. params.initiate_mean))
           (initiation_loop i)
       end);
  (* --- joins ---------------------------------------------------------- *)
  Array.iteri
    (fun i _ ->
      let join_at = Sample.uniform rng ~lo:1. ~hi:ph.join_end in
      Sim.schedule_at sim ~time:join_at (fun () ->
          set_online i true;
          (* Bootstrap handshake. *)
          account ~src:i ~bytes:(3 * header_bytes) ~kind:Net.Maintenance ()))
    assignments;
  (* --- replication phase ---------------------------------------------- *)
  Array.iteri
    (fun i own ->
      let at =
        Sample.uniform rng
          ~lo:(Float.max ph.replicate_start 2.)
          ~hi:ph.construct_start
      in
      Sim.schedule_at sim ~time:at (fun () ->
          if online i then begin
            let seen = Hashtbl.create 8 in
            let attempts = ref 0 in
            while Hashtbl.length seen < n_min && !attempts < 8 * n_min do
              incr attempts;
              let target =
                Unstructured.random_walk graph rng ~online ~start:i
                  ~steps:walk_steps
              in
              if target <> i && online target then Hashtbl.replace seen target ()
            done;
            Hashtbl.iter
              (fun target () ->
                account ~src:i ~dst:target
                  ~bytes:((walk_steps * header_bytes) + (Array.length own * key_bytes))
                  ~kind:Net.Maintenance ();
                let nt = Overlay.node overlay target in
                Array.iter (Node.ensure_key nt) own)
              seen
          end))
    assignments;
  (* --- construction kick-off ------------------------------------------ *)
  Array.iteri
    (fun i _ ->
      Sim.schedule_at sim
        ~time:(ph.construct_start +. Sample.uniform rng ~lo:0. ~hi:60.)
        (fun () ->
          scheduled.(i) <- true;
          initiation_loop i ()))
    assignments;
  (* --- periodic pings -------------------------------------------------- *)
  Array.iteri
    (fun i _ ->
      Sim.every sim ~at:(Sample.uniform rng ~lo:0. ~hi:params.ping_interval)
        ~until:ph.end_time ~period:(fun () -> params.ping_interval) (fun () ->
          if online i then account ~src:i ~bytes:header_bytes ~kind:Net.Maintenance ()))
    assignments;
  (* --- queries ---------------------------------------------------------- *)
  let all_keys =
    Array.to_list assignments
    |> List.concat_map Array.to_list
    |> List.sort_uniq Key.compare
    |> Array.of_list
  in
  let query_log = ref [] in
  let next_qid = ref 0 in
  let issue_query origin =
    let key = all_keys.(Rng.int rng (Array.length all_keys)) in
    let issued_at = Sim.now sim in
    let qid = !next_qid in
    incr next_qid;
    if Telemetry.active tel then Telemetry.emit tel (Event.Query_issue { qid; origin });
    let latency_total = ref 0. in
    let hops = ref 0 in
    let send_msg ?src ?dst () =
      account ?src ?dst ~bytes:header_bytes ~kind:Net.Query ();
      latency_total := !latency_total +. Latency.sample Latency.planetlab rng
    in
    (* Route hop by hop; dead references cost a timeout and a retry. *)
    let rec route cur budget =
      if budget = 0 then false
      else begin
        let n = Overlay.node overlay cur in
        match Overlay.divergence_level n.Node.path key with
        | None -> true (* responsible peer reached *)
        | Some level ->
          let refs = Overlay.shuffled_refs rng n ~level in
          let rec try_refs idx =
            if idx >= Array.length refs then false
            else begin
              let next = refs.(idx) in
              send_msg ~src:cur ~dst:next ();
              if Telemetry.active tel then
                Telemetry.emit tel (Event.Query_hop { qid; src = cur; dst = next });
              incr hops;
              if online next then route next (budget - 1)
              else begin
                (* Timeout, then retry an alternative reference. *)
                latency_total := !latency_total +. retry_timeout;
                try_refs (idx + 1)
              end
            end
          in
          try_refs 0
      end
    in
    let success = route origin (4 * Key.bits) in
    if success then begin
      (* Response travels straight back to the origin. *)
      send_msg ~dst:origin ()
    end;
    if Telemetry.active tel then
      Telemetry.emit tel
        (Event.Query_complete
           { qid; origin; hops = !hops; latency = !latency_total; success });
    query_log :=
      { at = issued_at; latency = !latency_total; hops = !hops; success } :: !query_log
  in
  let issue_query =
    match storm with
    | None -> issue_query
    | Some (rrng, storm) ->
      fun origin ->
        Storm.issue storm ~origin ~key:all_keys.(Rng.int rrng (Array.length all_keys))
  in
  Array.iteri
    (fun i _ ->
      Sim.every sim ~at:(ph.query_start +. Sample.uniform rng ~lo:0. ~hi:params.query_max)
        ~until:ph.end_time
        ~period:(fun () -> Sample.uniform rng ~lo:params.query_min ~hi:params.query_max)
        (fun () -> if online i then issue_query i))
    assignments;
  (* --- self-healing daemon ---------------------------------------------- *)
  (* The split is gated exactly like the storm's: a run without the
     daemon consumes the same draw sequence as before it existed. *)
  let maint_stats = ref None in
  (match params.maint with
  | None -> ()
  | Some cfg ->
    let mrng = Rng.split rng in
    Sim.schedule_at sim ~time:ph.query_start (fun () ->
        (* Hand the daemon the transaction manager (if one was not set
           explicitly): its health monitor then audits settled documents
           for torn writes.  Read at fire time — [txn_mgr] is populated
           during setup, after this closure is created. *)
        let cfg =
          match (cfg.Maintenance.txn, !txn_mgr) with
          | None, (Some _ as m) -> { cfg with Maintenance.txn = m }
          | _ -> cfg
        in
        maint_stats :=
          Some
            (Maintenance.install_daemon ~telemetry:tel ~keys:(fun () -> all_keys) sim mrng
               overlay ~until:ph.end_time cfg)));
  (* --- transaction workload --------------------------------------------- *)
  (* Gated exactly like the storm and the daemon: [txn = false] creates
     nothing and consumes no draws, so legacy runs are bit-identical. *)
  if params.txn then begin
    let trng = Rng.split rng in
    let transport =
      {
        Txn.send =
          (fun ~phase ~src ~dst ~deliver ->
            let bytes = header_bytes + (match phase with Txn.Prepare -> key_bytes | _ -> 0) in
            Net.send net ~src ~dst ~bytes ~kind:Net.Maintenance (Storm.Deliver deliver))
      }
    in
    let mgr = Txn.create ~telemetry:tel sim (Rng.split trng) overlay ~transport in
    txn_mgr := Some mgr;
    (* Document submissions: a random online coordinator indexes one
       document under [keys_min, keys_max] distinct keys, atomically. *)
    let next_doc = ref 0 in
    Sim.every sim ~at:(ph.query_start +. Sample.uniform trng ~lo:0. ~hi:doc_interval)
      ~until:ph.end_time
      ~period:(fun () -> Sample.exponential trng ~rate:(1. /. doc_interval)) (fun () ->
        let coordinator = Rng.int trng params.peers in
        let span = keys_max - keys_min + 1 in
        let k = keys_min + Rng.int trng span in
        let k = min k (Array.length all_keys) in
        let picks = Rng.sample_without_replacement trng ~k ~n:(Array.length all_keys) in
        if online coordinator then begin
          let doc = Printf.sprintf "doc-%05d" !next_doc in
          incr next_doc;
          let ops =
            Array.to_list picks
            |> List.map (fun i -> Txn.Put { key = all_keys.(i); payload = doc })
          in
          ignore (Txn.submit mgr ~coordinator ops)
        end);
    Sim.every sim ~at:(ph.query_start +. recover_period) ~until:ph.end_time
      ~period:(fun () -> recover_period) (fun () -> ignore (Txn.recover_pass mgr))
  end;
  (* --- churn ------------------------------------------------------------ *)
  let churn_params =
    match params.churn with
    | Some c -> c
    | None -> Churn.paper_params ~start:ph.churn_start ~stop:ph.end_time
  in
  Churn.install sim rng churn_params
    ~node_ids:(List.init params.peers (fun i -> i))
    ~set_online;
  (* --- online population sampling --------------------------------------- *)
  let online_series = ref [] in
  let rec sample_online () =
    if Sim.now sim <= ph.end_time then begin
      online_series := (Sim.now sim /. 60., Net.online_count net) :: !online_series;
      Sim.schedule sim ~delay:60. sample_online
    end
  in
  Sim.schedule_at sim ~time:0. sample_online;
  (* --- run --------------------------------------------------------------- *)
  (* Let the last churned peers come back online before evaluating. *)
  Sim.run_until sim ~time:(ph.end_time +. 600.);
  (* Final recovery sweep once the last churned peers are back: resolves
     intents whose disks were unreachable while their peer was down. *)
  Option.iter (fun m -> ignore (Txn.recover_pass m)) !txn_mgr;
  (* --- evaluation ---------------------------------------------------------- *)
  let reference =
    Reference.compute ~keys:all_keys ~peers:params.peers ~d_max ~n_min
  in
  let queries =
    match storm with
    | None -> !query_log
    | Some (_, storm) ->
      List.map
        (fun c ->
          {
            at = c.Storm.issued_at;
            latency = c.Storm.finished_at -. c.Storm.issued_at;
            hops = c.Storm.hops;
            success = c.Storm.success;
          })
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
  let latency_series =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun q ->
        if q.success then begin
          let bucket = 10. *. Float.round (q.at /. 600.) in
          let m =
            match Hashtbl.find_opt tbl bucket with
            | Some m -> m
            | None ->
              let m = Moments.create () in
              Hashtbl.add tbl bucket m;
              m
          in
          Moments.add m q.latency
        end)
      queries;
    Hashtbl.fold (fun b m acc -> (b, Moments.mean m, Moments.stddev m) :: acc) tbl []
    |> List.sort compare
  in
  let per_peer series =
    List.map (fun (t, bps) -> (t /. 60., bps /. float_of_int params.peers)) series
  in
  {
    overlay;
    reference;
    deviation = Deviation.of_overlay ~reference overlay;
    online_series = List.rev !online_series;
    maintenance_bw = per_peer (Net.bandwidth net Net.Maintenance);
    query_bw = per_peer (Net.bandwidth net Net.Query);
    latency_series;
    query_stats;
    stats = Overlay.stats overlay;
    counters = Engine.counters eng;
    messages_sent = Net.messages_sent net;
    messages_dropped = Net.messages_dropped net;
    messages_shed = Net.messages_shed net;
    queue_peak = Net.queue_peak net;
    robust_stats = Option.map (fun (_, storm) -> Storm.stats storm) storm;
    fault_stats = Option.map Fault.stats fault;
    maint_stats = !maint_stats;
    txn = !txn_mgr;
    txn_stats = Option.map Txn.stats !txn_mgr;
  }
