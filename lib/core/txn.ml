module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event
module Sim = Pgrid_simnet.Sim

type op =
  | Put of { key : Key.t; payload : string }
  | Del of { key : Key.t; payload : string }

type phase = Prepare | Ack | Commit | Abort

type transport = {
  send : phase:phase -> src:int -> dst:int -> deliver:(unit -> unit) -> unit;
}

(* The retry profile: one ack settles a key; a 2 s base timeout grows
   by [Sim.backoff] with 20% jitter for 3 retries. *)
let req_timeout = 2.
let jitter = 0.2
let max_retries = 3
let recover_after = 300.

type status = Pending | Committed | Aborted

type stats = {
  mutable begun : int;
  mutable committed : int;
  mutable aborted : int;
  mutable prepares : int;
  mutable acks : int;
  mutable timeouts : int;
  mutable retries : int;
  mutable undos : int;
  mutable recovered : int;
  mutable redelivered : int;
}

(* The coordinator's decision record is the transaction's durable commit
   point: status flips Pending -> Committed/Aborted exactly once, by
   whichever of the driver or the recovery pass gets there first. *)
type decision = {
  d_id : int;
  d_coordinator : int;
  d_ops : op list;
  d_begun : float;
  mutable d_status : status;
}

(* One durable write-ahead record at a participant.  [applied] remembers
   whether the tentative apply actually changed the store, so undoing an
   op that found its payload already present (written by someone else)
   cannot destroy that earlier write. *)
type intent = { i_op : op; i_applied : bool }

type t = {
  overlay : Overlay.t;
  tel : Telemetry.t;
  rng : Rng.t;
  transport : transport;
  sim : Sim.t;
  decisions : (int, decision) Hashtbl.t;
  (* peer id -> its durable intent log, keyed (txn id, op index). *)
  logs : (int, (int * int, intent) Hashtbl.t) Hashtbl.t;
  (* Per-peer crash epoch: volatile driver state captured before a bump
     is dead.  The logs/decisions above deliberately survive. *)
  epochs : int array;
  mutable next_id : int;
  mutable active : int;
  stats : stats;
}

let create ?(telemetry = Pgrid_telemetry.Global.get ()) sim rng overlay ~transport =
  {
    overlay;
    tel = telemetry;
    rng;
    transport;
    sim;
    decisions = Hashtbl.create 64;
    logs = Hashtbl.create 64;
    epochs = Array.make (Overlay.size overlay) 0;
    next_id = 0;
    active = 0;
    stats =
      {
        begun = 0;
        committed = 0;
        aborted = 0;
        prepares = 0;
        acks = 0;
        timeouts = 0;
        retries = 0;
        undos = 0;
        recovered = 0;
        redelivered = 0;
      };
  }

let emit t kind = if Telemetry.active t.tel then Telemetry.emit t.tel kind
let key_of = function Put { key; _ } | Del { key; _ } -> key

let peer_log t p =
  match Hashtbl.find_opt t.logs p with
  | Some log -> log
  | None ->
    let log = Hashtbl.create 8 in
    Hashtbl.replace t.logs p log;
    log

(* Tentative apply at a participant; the boolean is whether the store
   changed (see [intent]). *)
let apply_op n op =
  match op with
  | Put { key; payload } -> Node.insert_new n key payload
  | Del { key; payload } -> Node.remove_payload n key payload

(* Participant-local undo of an applied op (recovery / abort push). *)
let local_undo t p op =
  let n = Overlay.node t.overlay p in
  match op with
  | Put { key; payload } -> ignore (Node.remove_payload n key payload)
  | Del { key; payload } ->
    if Node.responsible_for n key then Node.insert n key payload

(* Coordinator-side routed undo: [Overlay.delete]'s replica fan-out is
   the abort primitive, draining tentative copies the coordinator never
   heard an ack for. *)
let routed_undo t ~from op =
  t.stats.undos <- t.stats.undos + 1;
  match op with
  | Put { key; payload } -> ignore (Overlay.delete t.overlay ~from ~payload key)
  | Del { key; payload } -> ignore (Overlay.insert t.overlay ~from key payload)

(* Resolve every intent [p] holds for [d] per the decision; used by the
   commit/abort push (normal path) and mirrored by [recover_pass]. *)
let resolve_intents_at t d p =
  match Hashtbl.find_opt t.logs p with
  | None -> ()
  | Some log ->
    let mine =
      Hashtbl.fold
        (fun (txn, opi) it acc -> if txn = d.d_id then ((txn, opi), it) :: acc else acc)
        log []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.iter
      (fun ((txn, opi), it) ->
        if d.d_status = Aborted && it.i_applied then local_undo t p it.i_op;
        Hashtbl.remove log (txn, opi))
      mine

let push_decision t d p =
  let phase = if d.d_status = Committed then Commit else Abort in
  t.transport.send ~phase ~src:d.d_coordinator ~dst:p ~deliver:(fun () ->
      resolve_intents_at t d p)

let abort_txn t d ~acked =
  d.d_status <- Aborted;
  t.active <- t.active - 1;
  t.stats.aborted <- t.stats.aborted + 1;
  emit t (Event.Txn_abort { txn = d.d_id });
  (* Scrub tentatively applied data through the routed delete while the
     coordinator can still route; participants holding intents also undo
     locally on the abort push (or via recovery). *)
  if (Overlay.node t.overlay d.d_coordinator).Node.online then
    List.iter (fun op -> routed_undo t ~from:d.d_coordinator op) d.d_ops;
  List.iter (push_decision t d) acked

let commit_txn t d ~acked =
  d.d_status <- Committed;
  t.active <- t.active - 1;
  t.stats.committed <- t.stats.committed + 1;
  emit t (Event.Txn_commit { txn = d.d_id });
  List.iter (push_decision t d) acked

let retry_delay t k = Sim.backoff_delay t.rng ~base:req_timeout ~jitter k

type op_state = { mutable outstanding : int; mutable settled : bool }

let submit t ~coordinator ops =
  if ops = [] then invalid_arg "Txn.submit: empty transaction";
  if not (Overlay.node t.overlay coordinator).Node.online then
    invalid_arg "Txn.submit: coordinator offline";
  let id = t.next_id in
  t.next_id <- id + 1;
  let d =
    { d_id = id; d_coordinator = coordinator; d_ops = ops; d_begun = Sim.now t.sim;
      d_status = Pending }
  in
  Hashtbl.replace t.decisions id d;
  t.active <- t.active + 1;
  t.stats.begun <- t.stats.begun + 1;
  emit t (Event.Txn_begin { txn = id; coordinator; ops = List.length ops });
  (* Everything below is the coordinator's volatile driver state: a crash
     of [coordinator] bumps its epoch and orphans these closures; the
     durable [d] then falls to [recover_pass]. *)
  let epoch = t.epochs.(coordinator) in
  let alive () = t.epochs.(coordinator) = epoch && d.d_status = Pending in
  let remaining = ref (List.length ops) in
  let failed = ref false in
  let acked : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let acked_sorted () =
    Hashtbl.fold (fun p () acc -> p :: acc) acked [] |> List.sort compare
  in
  let op_done ok =
    if not ok then failed := true;
    remaining := !remaining - 1;
    if !remaining = 0 then
      if !failed then abort_txn t d ~acked:(acked_sorted ())
      else commit_txn t d ~acked:(acked_sorted ())
  in
  let fan_out op_idx op rid =
    let responsible = Overlay.node t.overlay rid in
    let key = key_of op in
    let participants =
      rid
      :: (Node.replica_list responsible
         |> List.filter (fun r ->
                let n = Overlay.node t.overlay r in
                n.Node.online && Node.responsible_for n key))
      |> List.sort_uniq compare
    in
    let st = { outstanding = List.length participants; settled = false } in
    let on_ack p applied =
      ignore applied;
      if t.epochs.(coordinator) = epoch && d.d_status <> Pending then
        (* Late ack after the decision: the participant just logged an
           intent nobody will push to — tell it the outcome directly. *)
        push_decision t d p
      else if alive () then begin
        t.stats.acks <- t.stats.acks + 1;
        Hashtbl.replace acked p ();
        st.outstanding <- st.outstanding - 1;
        (* The first ack settles the key. *)
        if not st.settled then begin
          st.settled <- true;
          op_done true
        end
      end
    in
    let give_up () =
      st.outstanding <- st.outstanding - 1;
      if (not st.settled) && st.outstanding = 0 then begin
        st.settled <- true;
        op_done false
      end
    in
    let prepare p =
      let presolved = ref false in
      (* The live attempt's timeout; the first ack cancels it. *)
      let timer = ref Sim.no_timer in
      let rec attempt k =
        t.transport.send ~phase:Prepare ~src:coordinator ~dst:p ~deliver:(fun () ->
            let n = Overlay.node t.overlay p in
            (* A participant votes yes only while it still covers the
               key; acks therefore imply a durable, applied intent. *)
            if Node.responsible_for n key then begin
              let log = peer_log t p in
              let applied =
                match Hashtbl.find_opt log (id, op_idx) with
                | Some it -> it.i_applied (* duplicate delivery: re-ack *)
                | None ->
                  let applied = apply_op n op in
                  Hashtbl.replace log (id, op_idx) { i_op = op; i_applied = applied };
                  t.stats.prepares <- t.stats.prepares + 1;
                  emit t (Event.Txn_prepare { txn = id; peer = p });
                  applied
              in
              t.transport.send ~phase:Ack ~src:p ~dst:coordinator
                ~deliver:(fun () ->
                  if not !presolved then begin
                    presolved := true;
                    Sim.cancel t.sim !timer;
                    on_ack p applied
                  end)
            end);
        let delay = retry_delay t k in
        (* An instant transport may have delivered the ack already. *)
        if not !presolved then
          timer :=
            Sim.timer t.sim ~delay (fun () ->
                if alive () then begin
                  t.stats.timeouts <- t.stats.timeouts + 1;
                  if k < max_retries then begin
                    t.stats.retries <- t.stats.retries + 1;
                    attempt (k + 1)
                  end
                  else begin
                    presolved := true;
                    give_up ()
                  end
                end)
      in
      attempt 0
    in
    List.iter prepare participants
  in
  let rec route_op op_idx op r =
    if alive () then begin
      let res = Overlay.search t.overlay ~from:coordinator (key_of op) in
      match res.Overlay.responsible with
      | Some rid -> fan_out op_idx op rid
      | None ->
        if r < max_retries then begin
          t.stats.retries <- t.stats.retries + 1;
          (* A backoff pause, not a timeout: nothing cancels it. *)
          Sim.schedule t.sim ~delay:(retry_delay t r) (fun () -> route_op op_idx op (r + 1))
        end
        else op_done false
    end
  in
  List.iteri (fun op_idx op -> route_op op_idx op 0) ops;
  id

let status t id = Option.map (fun d -> d.d_status) (Hashtbl.find_opt t.decisions id)
let in_flight t = t.active

let intent_count t =
  Hashtbl.fold (fun _ log acc -> acc + Hashtbl.length log) t.logs 0

let note_crash t peer = t.epochs.(peer) <- t.epochs.(peer) + 1

let sorted_decisions t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t.decisions []
  |> List.sort (fun a b -> compare a.d_id b.d_id)

let recover_pass t =
  let now = Sim.now t.sim in
  (* Presumed abort: a decision still pending past [recover_after] has an
     orphaned (or wedged) driver; abort it durably so participant logs
     can be resolved below.  An actually-alive driver observes the flip
     through its [alive] guard and stops. *)
  List.iter
    (fun d ->
      if d.d_status = Pending && now -. d.d_begun > recover_after then begin
        d.d_status <- Aborted;
        t.active <- t.active - 1;
        t.stats.aborted <- t.stats.aborted + 1;
        emit t (Event.Txn_abort { txn = d.d_id });
        if (Overlay.node t.overlay d.d_coordinator).Node.online then
          List.iter (fun op -> routed_undo t ~from:d.d_coordinator op) d.d_ops
      end)
    (sorted_decisions t);
  (* Replay the intent logs of online peers (an offline peer's disk is
     unreachable; a later pass catches it after restart). *)
  let resolved = ref 0 in
  for p = 0 to Overlay.size t.overlay - 1 do
    let n = Overlay.node t.overlay p in
    if n.Node.online then begin
      match Hashtbl.find_opt t.logs p with
      | None -> ()
      | Some log ->
        Hashtbl.fold (fun k it acc -> (k, it) :: acc) log []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.iter (fun ((txn, opi), it) ->
               match Hashtbl.find_opt t.decisions txn with
               | None | Some { d_status = Pending; _ } -> ()
               | Some ({ d_status = Committed; _ } as d) ->
                 (* Re-apply in case the tentative copy went missing
                    (e.g. the peer lost responsibility and back): routed
                    insert lands it wherever it now belongs. *)
                 (match it.i_op with
                 | Put { key; payload } ->
                   if Node.responsible_for n key then begin
                     if Node.insert_new n key payload then
                       t.stats.redelivered <- t.stats.redelivered + 1
                   end
                   else if Overlay.insert t.overlay ~from:p key payload <> None then
                     t.stats.redelivered <- t.stats.redelivered + 1
                 | Del { key; payload } ->
                   if Node.responsible_for n key then
                     ignore (Node.remove_payload n key payload));
                 Hashtbl.remove log (txn, opi);
                 incr resolved;
                 t.stats.recovered <- t.stats.recovered + 1;
                 emit t (Event.Txn_recover { txn = d.d_id; peer = p; committed = true })
               | Some ({ d_status = Aborted; _ } as d) ->
                 if it.i_applied then local_undo t p it.i_op;
                 Hashtbl.remove log (txn, opi);
                 incr resolved;
                 t.stats.recovered <- t.stats.recovered + 1;
                 emit t
                   (Event.Txn_recover { txn = d.d_id; peer = p; committed = false }))
    end
  done;
  !resolved

let decisions t = List.map (fun d -> (d.d_id, d.d_status, d.d_ops)) (sorted_decisions t)

let settled_docs t =
  List.filter_map
    (fun d ->
      match d.d_status with
      | Pending -> None
      | Committed | Aborted -> (
        let payloads =
          List.map (function Put { payload; _ } -> Some payload | Del _ -> None) d.d_ops
        in
        match payloads with
        | Some p :: rest when List.for_all (( = ) (Some p)) rest ->
          Some
            ( p,
              Array.of_list (List.map key_of d.d_ops),
              d.d_status = Committed )
        | _ -> None))
    (sorted_decisions t)

let stats t = t.stats
