module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Sim = Pgrid_simnet.Sim
module Net = Pgrid_simnet.Net
module Breaker = Pgrid_simnet.Breaker
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

(* One lookup's walk: what every hop of it needs to finish it. *)
type lookup = {
  qid : int;
  origin : int;
  key : Key.t;
  issued_at : float;
  mutable hops : int;
}

(* One routing hop from [cur]: a primary attempt at [target] with its
   retry ladder, and at most one hedged backup at [refs.(next)].  An
   attempt is live from its send until its reply wins, its last timeout
   fires, or the hop resolves; each live attempt holds one timer. *)
type hop = {
  walk : lookup;
  cur : int;
  budget : int;
  refs : int array;  (* [refs.(next..)] are the untried candidates *)
  next : int;
  target : int;
  mutable backup : int;
  mutable attempt : int;  (* the primary's retry number *)
  mutable primary_rid : int;
  mutable backup_rid : int;
  mutable hedged : bool;
  (* The attempt was admitted as its circuit's half-open probe and has
     had no verdict yet. *)
  mutable primary_probe : bool;
  mutable backup_probe : bool;
  mutable primary_dead : bool;
  mutable backup_dead : bool;
  mutable resolved : bool;
  mutable primary_timer : Sim.timer;
  mutable backup_timer : Sim.timer;
  mutable hedge_timer : Sim.timer;
}

type wire =
  | Req of { hop : hop; rid : int; reply_to : int }
  | Resp of { hop : hop; rid : int }
  | Heartbeat

type config = {
  req_timeout : float;
  backoff : float;
  max_retries : int;
  hedge_after : float option;
  breaker : Breaker.config option;
  header_bytes : int;
}

let default_config =
  {
    req_timeout = 4.;
    backoff = 2.;
    max_retries = 2;
    hedge_after = None;
    breaker = None;
    header_bytes = 200;
  }

type completion = { issued_at : float; finished_at : float; success : bool }

type stats = {
  issued : int;
  succeeded : int;
  failed : int;
  timeouts : int;
  retries : int;
  give_ups : int;
  hedges : int;
  hedge_wins : int;
  breaker_opens : int;
  breaker_skips : int;
  sheds : int;
  sheds_maintenance : int;
  sheds_query : int;
  queue_peak : int;
}

type t = {
  sim : Sim.t;
  rng : Rng.t;
  overlay : Overlay.t;
  net : wire Net.t;
  cfg : config;
  tel : Telemetry.t;
  breaker : Breaker.t option;
  mutable in_flight : int;
  mutable next_rid : int;
  mutable next_qid : int;
  mutable issued : int;
  mutable succeeded : int;
  mutable failed : int;
  mutable timeouts : int;
  mutable retries : int;
  mutable give_ups : int;
  mutable hedges : int;
  mutable hedge_wins : int;
  mutable breaker_skips : int;
  mutable completions : completion list;
}

let admits t ~origin ~target =
  match t.breaker with
  | None -> true
  | Some br -> Breaker.admits br ~origin ~target

let record_success t ~origin ~target =
  Option.iter (fun br -> Breaker.record_success br ~origin ~target) t.breaker

let record_failure t ~origin ~target =
  Option.iter (fun br -> Breaker.record_failure br ~origin ~target) t.breaker

(* Right after [admits] said yes: is that request the circuit's probe? *)
let is_probe t ~origin ~target =
  match t.breaker with
  | None -> false
  | Some br -> Breaker.probing br ~origin ~target

let abandon t ~origin ~target =
  Option.iter (fun br -> Breaker.abandon br ~origin ~target) t.breaker

(* A hop's candidates: a fresh shuffled copy of the references at
   [level], walked by index. *)
let snapshot t cur ~level =
  let refs = Node.refs_array (Overlay.node t.overlay cur) ~level in
  Rng.shuffle t.rng refs;
  refs

let finish t w success =
  let now = Sim.now t.sim in
  if success then t.succeeded <- t.succeeded + 1 else t.failed <- t.failed + 1;
  if Telemetry.active t.tel then
    Telemetry.emit t.tel
      (Event.Query_complete
         { qid = w.qid; origin = w.origin; hops = w.hops; latency = now -. w.issued_at; success });
  t.completions <- { issued_at = w.issued_at; finished_at = now; success } :: t.completions

let rec route t w cur budget =
  if budget = 0 then finish t w false
  else
    match Overlay.divergence_level (Overlay.node t.overlay cur).Node.path w.key with
    | None ->
      (* Responsible peer reached; the response flows back. *)
      Net.account ~src:cur ~dst:w.origin t.net ~bytes:t.cfg.header_bytes ~kind:Net.Query;
      finish t w true
    | Some level -> try_refs t w cur budget (snapshot t cur ~level) 0

and try_refs t w cur budget refs next =
  if next >= Array.length refs then finish t w false
  else
    let target = refs.(next) in
    if not (admits t ~origin:cur ~target) then begin
      t.breaker_skips <- t.breaker_skips + 1;
      try_refs t w cur budget refs (next + 1)
    end
    else start_hop t w cur budget target refs (next + 1)

(* One routing hop: a primary attempt with bounded retries, optionally
   raced by a single hedged backup via the next admitted sibling
   reference.  First response wins; resolving the hop cancels every
   timer it still holds, so the loser's late reply finds it resolved. *)
and start_hop t w cur budget target refs next =
  let h =
    {
      walk = w;
      cur;
      budget;
      refs;
      next;
      target;
      backup = -1;
      attempt = 0;
      primary_rid = -1;
      backup_rid = -1;
      hedged = false;
      primary_probe = is_probe t ~origin:cur ~target;
      backup_probe = false;
      primary_dead = false;
      backup_dead = false;
      resolved = false;
      primary_timer = Sim.no_timer;
      backup_timer = Sim.no_timer;
      hedge_timer = Sim.no_timer;
    }
  in
  arm t h ~backup:false;
  match t.cfg.hedge_after with
  | None -> ()
  | Some d -> h.hedge_timer <- Sim.timer t.sim ~delay:d (fun () -> hedge t h)

and arm t h ~backup =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  t.in_flight <- t.in_flight + 1;
  let tgt = if backup then h.backup else h.target in
  if backup then h.backup_rid <- rid else h.primary_rid <- rid;
  Net.send t.net ~src:h.cur ~dst:tgt ~bytes:t.cfg.header_bytes ~kind:Net.Query
    (Req { hop = h; rid; reply_to = h.cur });
  let k = if backup then 0 else h.attempt in
  let timeout = t.cfg.req_timeout *. (t.cfg.backoff ** float_of_int k) in
  let timer = Sim.timer t.sim ~delay:timeout (fun () -> time_out t h ~backup) in
  if backup then h.backup_timer <- timer else h.primary_timer <- timer

(* An attempt's timer fired, so the attempt is still live: resolution
   cancels it. *)
and time_out t h ~backup =
  t.in_flight <- t.in_flight - 1;
  let rid = if backup then h.backup_rid else h.primary_rid in
  let tgt = if backup then h.backup else h.target in
  let k = if backup then 0 else h.attempt in
  t.timeouts <- t.timeouts + 1;
  if Telemetry.active t.tel then
    Telemetry.emit t.tel (Event.Timeout { rid; src = h.cur; dst = tgt; attempt = k });
  record_failure t ~origin:h.cur ~target:tgt;
  (* That was the probe's verdict; retries skip the breaker. *)
  if not backup then h.primary_probe <- false;
  (* The hedge is a single attempt: its job is to dodge one slow or
     shedding peer, not to duplicate the retry ladder. *)
  if (not backup) && k < t.cfg.max_retries then begin
    t.retries <- t.retries + 1;
    if Telemetry.active t.tel then
      Telemetry.emit t.tel (Event.Retry { rid; src = h.cur; dst = tgt; attempt = k + 1 });
    h.attempt <- k + 1;
    arm t h ~backup
  end
  else begin
    t.give_ups <- t.give_ups + 1;
    if Telemetry.active t.tel then Telemetry.emit t.tel (Event.Give_up { rid; src = h.cur });
    if backup then h.backup_dead <- true
    else begin
      h.primary_dead <- true;
      (* A dead primary is never hedged. *)
      Sim.cancel t.sim h.hedge_timer
    end;
    let backup_in_flight = h.hedged && not h.backup_dead in
    if h.primary_dead && not backup_in_flight then
      try_refs t h.walk h.cur h.budget h.refs (if h.hedged then h.next + 1 else h.next)
  end

(* The hedge timer fired: the hop is unresolved, its primary alive and
   not yet hedged. *)
and hedge t h =
  let refs = h.refs and next = h.next in
  (* Pick the first admitted sibling as the backup. *)
  let j = ref next in
  while !j < Array.length refs && not (admits t ~origin:h.cur ~target:refs.(!j)) do
    incr j
  done;
  if !j < Array.length refs then begin
    let b = refs.(!j) in
    (* Move it to the front of the candidates; the siblings it skipped
       keep their order and resume the fallback, right after it. *)
    Array.blit refs next refs (next + 1) (!j - next);
    refs.(next) <- b;
    h.backup <- b;
    h.backup_probe <- is_probe t ~origin:h.cur ~target:b;
    h.hedged <- true;
    t.hedges <- t.hedges + 1;
    if Telemetry.active t.tel then
      Telemetry.emit t.tel
        (Event.Hedge_launch { qid = h.walk.qid; origin = h.cur; primary = h.target; backup = b });
    arm t h ~backup:true
  end

(* A live attempt's reply: the hop advances to [winner]. *)
let resolve t h ~winner ~backup_won =
  h.resolved <- true;
  let primary_live = not h.primary_dead and backup_live = h.hedged && not h.backup_dead in
  t.in_flight <- t.in_flight - Bool.to_int primary_live - Bool.to_int backup_live;
  Sim.cancel t.sim h.primary_timer;
  Sim.cancel t.sim h.backup_timer;
  Sim.cancel t.sim h.hedge_timer;
  (* The losing attempt gets no verdict; if it was a half-open probe,
     its circuit must be free to probe again. *)
  if backup_won then begin
    if primary_live && h.primary_probe then abandon t ~origin:h.cur ~target:h.target
  end
  else if backup_live && h.backup_probe then abandon t ~origin:h.cur ~target:h.backup;
  record_success t ~origin:h.cur ~target:winner;
  if h.hedged then begin
    if backup_won then t.hedge_wins <- t.hedge_wins + 1;
    if Telemetry.active t.tel then
      Telemetry.emit t.tel (Event.Hedge_win { qid = h.walk.qid; origin = h.cur; backup_won })
  end;
  h.walk.hops <- h.walk.hops + 1;
  if Telemetry.active t.tel then
    Telemetry.emit t.tel (Event.Query_hop { qid = h.walk.qid; src = h.cur; dst = winner });
  route t h.walk winner (h.budget - 1)

let create ?(telemetry = Pgrid_telemetry.Global.get ()) sim rng overlay net cfg =
  if not (cfg.req_timeout > 0.) then invalid_arg "Storm.create: req_timeout must be positive";
  if not (cfg.backoff >= 1.) then invalid_arg "Storm.create: backoff must be >= 1";
  if cfg.max_retries < 0 then invalid_arg "Storm.create: max_retries must be >= 0";
  (match cfg.hedge_after with
  | Some h when not (h > 0.) -> invalid_arg "Storm.create: hedge_after must be positive"
  | _ -> ());
  let breaker =
    Option.map
      (fun bcfg ->
        Breaker.create ~telemetry bcfg ~now:(fun () -> Sim.now sim))
      cfg.breaker
  in
  let t =
    {
      sim;
      rng;
      overlay;
      net;
      cfg;
      tel = telemetry;
      breaker;
      in_flight = 0;
      next_rid = 0;
      next_qid = 0;
      issued = 0;
      succeeded = 0;
      failed = 0;
      timeouts = 0;
      retries = 0;
      give_ups = 0;
      hedges = 0;
      hedge_wins = 0;
      breaker_skips = 0;
      completions = [];
    }
  in
  Net.set_handler net (fun me msg ->
      match msg with
      | Req { hop; rid; reply_to } ->
        (* Routing state is persistent: any peer that worked through its
           service queue answers. *)
        Net.send net ~src:me ~dst:reply_to ~bytes:cfg.header_bytes ~kind:Net.Query
          (Resp { hop; rid })
      | Resp { hop = h; rid } ->
        (* A reply counts only while its attempt is live: not a retried
           or timed-out rid, not a duplicate, not after the hop resolved. *)
        if not h.resolved then
          if rid = h.primary_rid && not h.primary_dead then
            resolve t h ~winner:h.target ~backup_won:false
          else if h.hedged && rid = h.backup_rid && not h.backup_dead then
            resolve t h ~winner:h.backup ~backup_won:true
      | Heartbeat -> ());
  t

let issue t ~origin ~key =
  let qid = t.next_qid in
  t.next_qid <- t.next_qid + 1;
  t.issued <- t.issued + 1;
  let issued_at = Sim.now t.sim in
  if Telemetry.active t.tel then
    Telemetry.emit t.tel (Event.Query_issue { qid; origin });
  route t { qid; origin; key; issued_at; hops = 0 } origin (4 * Key.bits)

let issue_random t ~key =
  let n = Overlay.size t.overlay in
  let rec pick attempts =
    if attempts = 0 then None
    else
      let i = Rng.int t.rng n in
      if (Overlay.node t.overlay i).Node.online then Some i else pick (attempts - 1)
  in
  match pick (4 * n) with
  | None -> false
  | Some origin ->
    issue t ~origin ~key;
    true

let heartbeat t ~src ~dst =
  Net.send t.net ~src ~dst ~bytes:t.cfg.header_bytes ~kind:Net.Maintenance Heartbeat

let completions t = t.completions
let in_flight t = t.in_flight

let stats t =
  {
    issued = t.issued;
    succeeded = t.succeeded;
    failed = t.failed;
    timeouts = t.timeouts;
    retries = t.retries;
    give_ups = t.give_ups;
    hedges = t.hedges;
    hedge_wins = t.hedge_wins;
    breaker_opens = (match t.breaker with None -> 0 | Some br -> Breaker.opens br);
    breaker_skips = t.breaker_skips;
    sheds = Net.messages_shed t.net;
    sheds_maintenance = Net.shed_of_kind t.net Net.Maintenance;
    sheds_query = Net.shed_of_kind t.net Net.Query;
    queue_peak = Net.queue_peak t.net;
  }

let breaker t = t.breaker
