module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Sim = Pgrid_simnet.Sim
module Net = Pgrid_simnet.Net
module Breaker = Pgrid_simnet.Breaker
module Maintenance = Pgrid_core.Maintenance
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

(* One lookup's walk and its current routing hop: a walk has one hop at
   a time, so the hop's state lives in the walk.  A hop from [cur] is a
   primary attempt at [target] with its retry ladder, and at most one
   hedged backup at [refs.(next)].  An attempt is live from its send
   until its reply wins, its last timeout fires, or the hop resolves;
   each live attempt holds one timer.

   Finished walks return to the engine's free list and carry later
   lookups.  That is safe because rids are never reused: a late reply
   echoes a rid that no later hop of any walk sends, so it matches no
   live attempt.  [resolved] is set from the reply that wins a hop until
   the next hop starts, and on a finished walk.  The three timer
   closures are built once per walk record and read the walk's state
   when they fire; a hop's timers have all fired or been cancelled
   before its walk moves on (resolution cancels them, and the fallback
   runs only once no attempt is live), so none fires on a later hop. *)
type walk = {
  mutable qid : int;
  mutable origin : int;
  mutable key : Key.t;
  mutable issued_at : float;
  mutable hops : int;
  (* The hop's level, and whether its candidates are that level's
     second snapshot. *)
  mutable level : int;
  mutable refreshed : bool;
  mutable cur : int;
  mutable budget : int;
  (* The candidates are [refs.(0 .. len - 1)], a snapshot the walk owns;
     [refs.(next .. len - 1)] are untried.  They are drawn in try order
     as the hop needs them ([Overlay.draw_candidate]): [refs.(0 .. drawn
     - 1)] are fixed, and the rest is the undrawn pool, in no order. *)
  mutable refs : int array;
  mutable len : int;
  mutable next : int;
  mutable drawn : int;
  mutable target : int;
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
  on_primary_timeout : unit -> unit;
  on_backup_timeout : unit -> unit;
  on_hedge : unit -> unit;
}

type wire =
  | Req of { walk : walk; rid : int; reply_to : int }
  | Resp of { walk : walk; rid : int }
  | Deliver of (unit -> unit)

type config = {
  req_timeout : float;
  jitter : float;
  max_retries : int;
  evict_after : int option;
  hedge_after : float option;
  breaker : Breaker.config option;
}

let default_config =
  {
    req_timeout = 4.;
    jitter = 0.;
    max_retries = 2;
    evict_after = None;
    hedge_after = None;
    breaker = None;
  }

type completion = { issued_at : float; finished_at : float; hops : int; success : bool }

type stats = {
  issued : int;
  succeeded : int;
  failed : int;
  timeouts : int;
  retries : int;
  give_ups : int;
  evictions : int;
  hedges : int;
  hedge_wins : int;
  breaker_opens : int;
  breaker_skips : int;
  sheds : int;
  sheds_maintenance : int;
  sheds_query : int;
  queue_peak : int;
}

let header_bytes = 200

type t = {
  sim : Sim.t;
  rng : Rng.t;
  overlay : Overlay.t;
  net : wire Net.t;
  cfg : config;
  tel : Telemetry.t;
  breaker : Breaker.t option;
  (* Consecutive timeouts per (holder, reference) link, kept only when
     [cfg.evict_after] is set. *)
  fail_counts : (int * int, int) Hashtbl.t;
  (* Finished walks, ready for reuse: [idle.(0 .. idle_count - 1)]. *)
  mutable idle : walk array;
  mutable idle_count : int;
  mutable in_flight : int;
  mutable next_rid : int;
  mutable next_qid : int;
  mutable issued : int;
  mutable succeeded : int;
  mutable failed : int;
  mutable timeouts : int;
  mutable retries : int;
  mutable give_ups : int;
  mutable evictions : int;
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
  match t.breaker with None -> () | Some br -> Breaker.record_success br ~origin ~target

let record_failure t ~origin ~target =
  match t.breaker with None -> () | Some br -> Breaker.record_failure br ~origin ~target

(* Right after [admits] said yes: is that request the circuit's probe? *)
let is_probe t ~origin ~target =
  match t.breaker with
  | None -> false
  | Some br -> Breaker.probing br ~origin ~target

let abandon t ~origin ~target =
  match t.breaker with None -> () | Some br -> Breaker.abandon br ~origin ~target

(* The hop's candidates: [w.cur]'s references at [w.level], copied
   into the walk's buffer, which grows to the largest level it meets,
   and none drawn yet. *)
let snapshot t w =
  let n = Overlay.node t.overlay w.cur in
  let need = Node.refs_count n ~level:w.level in
  if need > Array.length w.refs then w.refs <- Array.make (max need (2 * Array.length w.refs)) 0;
  w.len <- Node.refs_blit n ~level:w.level w.refs;
  w.drawn <- 0

(* The hop's candidate at [i <= w.drawn]: a fixed one below [w.drawn],
   else a uniform draw from the untried rest, fixed from now on. *)
let candidate t w i =
  if i < w.drawn then w.refs.(i)
  else begin
    w.drawn <- i + 1;
    Overlay.draw_candidate t.rng w.refs ~drawn:i ~len:w.len
  end

(* Correction-on-use: the [n]th consecutive timeout on the link from
   [w.cur] to [target] evicts [target] from [w.cur]'s references at the
   hop's level, which refills the level if that emptied it.  [true] iff
   a reference was evicted.  The walk's snapshot is a copy, so it keeps
   its candidates. *)
let evict t w ~target n =
  let link = (w.cur, target) in
  let fails = 1 + Option.value ~default:0 (Hashtbl.find_opt t.fail_counts link) in
  if fails < n then begin
    Hashtbl.replace t.fail_counts link fails;
    false
  end
  else begin
    Hashtbl.remove t.fail_counts link;
    let evicted =
      Maintenance.correct_on_use ~telemetry:t.tel ~dead:target t.rng t.overlay ~peer:w.cur
        ~level:w.level
    in
    t.evictions <- t.evictions + evicted;
    evicted > 0
  end

(* Every timer of the walk has fired or been cancelled by now. *)
let finish t w success =
  let now = Sim.now t.sim in
  if success then t.succeeded <- t.succeeded + 1 else t.failed <- t.failed + 1;
  if Telemetry.active t.tel then
    Telemetry.emit t.tel
      (Event.Query_complete
         { qid = w.qid; origin = w.origin; hops = w.hops; latency = now -. w.issued_at; success });
  t.completions <-
    { issued_at = w.issued_at; finished_at = now; hops = w.hops; success } :: t.completions;
  w.resolved <- true;
  if t.idle_count = Array.length t.idle then begin
    let idle = Array.make (max 16 (2 * t.idle_count)) w in
    Array.blit t.idle 0 idle 0 t.idle_count;
    t.idle <- idle
  end;
  t.idle.(t.idle_count) <- w;
  t.idle_count <- t.idle_count + 1

(* Not an [Overlay.walk]: each hop draws a candidate per try, learning
   liveness from timed-out requests instead of reading it. *)
let rec route t w cur budget =
  if budget = 0 then finish t w false
  else
    match Overlay.divergence_level (Overlay.node t.overlay cur).Node.path w.key with
    | None ->
      (* Responsible peer reached; the response flows back. *)
      Net.account ~src:cur ~dst:w.origin t.net ~bytes:header_bytes ~kind:Net.Query;
      finish t w true
    | Some level ->
      w.cur <- cur;
      w.budget <- budget;
      w.level <- level;
      w.refreshed <- false;
      snapshot t w;
      try_refs t w 0

and try_refs t w next =
  if next >= w.len then
    if w.refreshed || Option.is_none t.cfg.evict_after then finish t w false
    else begin
      (* An eviction may just have refilled this level: take one fresh
         snapshot before declaring the dead end. *)
      w.refreshed <- true;
      snapshot t w;
      try_refs t w 0
    end
  else
    let target = candidate t w next in
    if not (admits t ~origin:w.cur ~target) then begin
      t.breaker_skips <- t.breaker_skips + 1;
      try_refs t w (next + 1)
    end
    else start_hop t w target (next + 1)

(* One routing hop: a primary attempt with bounded retries, optionally
   raced by a single hedged backup via the next admitted sibling
   reference.  First response wins; resolving the hop cancels every
   timer it still holds, so the loser's late reply finds it resolved. *)
and start_hop t w target next =
  w.next <- next;
  w.target <- target;
  w.backup <- -1;
  w.attempt <- 0;
  w.primary_rid <- -1;
  w.backup_rid <- -1;
  w.hedged <- false;
  w.primary_probe <- is_probe t ~origin:w.cur ~target;
  w.backup_probe <- false;
  w.primary_dead <- false;
  w.backup_dead <- false;
  w.resolved <- false;
  w.primary_timer <- Sim.no_timer;
  w.backup_timer <- Sim.no_timer;
  w.hedge_timer <- Sim.no_timer;
  arm t w ~backup:false;
  match t.cfg.hedge_after with
  | None -> ()
  | Some d -> w.hedge_timer <- Sim.timer t.sim ~delay:d w.on_hedge

and arm t w ~backup =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  t.in_flight <- t.in_flight + 1;
  let tgt = if backup then w.backup else w.target in
  if backup then w.backup_rid <- rid else w.primary_rid <- rid;
  Net.send t.net ~src:w.cur ~dst:tgt ~bytes:header_bytes ~kind:Net.Query
    (Req { walk = w; rid; reply_to = w.cur });
  let k = if backup then 0 else w.attempt in
  let timeout =
    Sim.backoff_delay t.rng ~base:t.cfg.req_timeout ~jitter:t.cfg.jitter k
  in
  if backup then w.backup_timer <- Sim.timer t.sim ~delay:timeout w.on_backup_timeout
  else w.primary_timer <- Sim.timer t.sim ~delay:timeout w.on_primary_timeout

(* An attempt's timer fired, so the attempt is still live: resolution
   cancels it. *)
and time_out t w ~backup =
  t.in_flight <- t.in_flight - 1;
  let rid = if backup then w.backup_rid else w.primary_rid in
  let tgt = if backup then w.backup else w.target in
  let k = if backup then 0 else w.attempt in
  t.timeouts <- t.timeouts + 1;
  if Telemetry.active t.tel then
    Telemetry.emit t.tel (Event.Timeout { rid; src = w.cur; dst = tgt; attempt = k });
  record_failure t ~origin:w.cur ~target:tgt;
  (* That was the probe's verdict; retries skip the breaker. *)
  if not backup then w.primary_probe <- false;
  let evicted =
    match t.cfg.evict_after with None -> false | Some n -> evict t w ~target:tgt n
  in
  (* The hedge is a single attempt: its job is to dodge one slow or
     shedding peer, not to duplicate the retry ladder.  An evicted
     reference is not retried. *)
  if (not backup) && (not evicted) && k < t.cfg.max_retries then begin
    t.retries <- t.retries + 1;
    if Telemetry.active t.tel then
      Telemetry.emit t.tel (Event.Retry { rid; src = w.cur; dst = tgt; attempt = k + 1 });
    w.attempt <- k + 1;
    arm t w ~backup
  end
  else begin
    t.give_ups <- t.give_ups + 1;
    if Telemetry.active t.tel then Telemetry.emit t.tel (Event.Give_up { rid; src = w.cur });
    if backup then w.backup_dead <- true
    else begin
      w.primary_dead <- true;
      (* A dead primary is never hedged. *)
      Sim.cancel t.sim w.hedge_timer
    end;
    let backup_in_flight = w.hedged && not w.backup_dead in
    if w.primary_dead && not backup_in_flight then
      try_refs t w (if w.hedged then w.next + 1 else w.next)
  end

(* The hedge timer fired: the hop is unresolved, its primary alive and
   not yet hedged. *)
and hedge t w =
  let refs = w.refs and next = w.next in
  (* Pick the first admitted sibling as the backup. *)
  let j = ref next in
  while !j < w.len && not (admits t ~origin:w.cur ~target:(candidate t w !j)) do
    incr j
  done;
  if !j < w.len then begin
    let b = refs.(!j) in
    (* Move it to the front of the candidates; the siblings it skipped
       keep their order and resume the fallback, right after it. *)
    Array.blit refs next refs (next + 1) (!j - next);
    refs.(next) <- b;
    w.backup <- b;
    w.backup_probe <- is_probe t ~origin:w.cur ~target:b;
    w.hedged <- true;
    t.hedges <- t.hedges + 1;
    if Telemetry.active t.tel then
      Telemetry.emit t.tel
        (Event.Hedge_launch { qid = w.qid; origin = w.cur; primary = w.target; backup = b });
    arm t w ~backup:true
  end

(* A live attempt's reply: the hop advances to [winner]. *)
let resolve t w ~winner ~backup_won =
  w.resolved <- true;
  let primary_live = not w.primary_dead and backup_live = w.hedged && not w.backup_dead in
  t.in_flight <- t.in_flight - Bool.to_int primary_live - Bool.to_int backup_live;
  Sim.cancel t.sim w.primary_timer;
  Sim.cancel t.sim w.backup_timer;
  Sim.cancel t.sim w.hedge_timer;
  (* The losing attempt gets no verdict; if it was a half-open probe,
     its circuit must be free to probe again. *)
  if backup_won then begin
    if primary_live && w.primary_probe then abandon t ~origin:w.cur ~target:w.target
  end
  else if backup_live && w.backup_probe then abandon t ~origin:w.cur ~target:w.backup;
  record_success t ~origin:w.cur ~target:winner;
  if Option.is_some t.cfg.evict_after then Hashtbl.remove t.fail_counts (w.cur, winner);
  if w.hedged then begin
    if backup_won then t.hedge_wins <- t.hedge_wins + 1;
    if Telemetry.active t.tel then
      Telemetry.emit t.tel (Event.Hedge_win { qid = w.qid; origin = w.cur; backup_won })
  end;
  w.hops <- w.hops + 1;
  if Telemetry.active t.tel then
    Telemetry.emit t.tel (Event.Query_hop { qid = w.qid; src = w.cur; dst = winner });
  route t w winner (w.budget - 1)

let create ?(telemetry = Pgrid_telemetry.Global.get ()) sim rng overlay net cfg =
  if not (cfg.req_timeout > 0.) then invalid_arg "Storm.create: req_timeout must be positive";
  if not (cfg.jitter >= 0. && cfg.jitter < 1.) then
    invalid_arg "Storm.create: jitter outside [0, 1)";
  if cfg.max_retries < 0 then invalid_arg "Storm.create: max_retries must be >= 0";
  (match cfg.evict_after with
  | Some n when n < 1 -> invalid_arg "Storm.create: evict_after must be >= 1"
  | _ -> ());
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
      fail_counts = Hashtbl.create 64;
      idle = [||];
      idle_count = 0;
      in_flight = 0;
      next_rid = 0;
      next_qid = 0;
      issued = 0;
      succeeded = 0;
      failed = 0;
      timeouts = 0;
      retries = 0;
      give_ups = 0;
      evictions = 0;
      hedges = 0;
      hedge_wins = 0;
      breaker_skips = 0;
      completions = [];
    }
  in
  Net.set_handler net (fun me msg ->
      match msg with
      | Req { walk; rid; reply_to } ->
        (* Routing state is persistent: any peer that worked through its
           service queue answers. *)
        Net.send net ~src:me ~dst:reply_to ~bytes:header_bytes ~kind:Net.Query
          (Resp { walk; rid })
      | Resp { walk = w; rid } ->
        (* A reply counts only while its attempt is live: not a retried
           or timed-out rid, not a duplicate, not after the hop resolved,
           and never on a later hop or lookup, which send fresh rids. *)
        if not w.resolved then
          if rid = w.primary_rid && not w.primary_dead then
            resolve t w ~winner:w.target ~backup_won:false
          else if w.hedged && rid = w.backup_rid && not w.backup_dead then
            resolve t w ~winner:w.backup ~backup_won:true
      | Deliver deliver -> deliver ());
  t

(* A walk record for a new lookup: a finished one if there is one. *)
let fresh_walk t ~qid ~origin ~key ~issued_at =
  if t.idle_count > 0 then begin
    t.idle_count <- t.idle_count - 1;
    let w = t.idle.(t.idle_count) in
    w.qid <- qid;
    w.origin <- origin;
    w.key <- key;
    w.issued_at <- issued_at;
    w.hops <- 0;
    w
  end
  else
    let rec w =
      {
        qid;
        origin;
        key;
        issued_at;
        hops = 0;
        level = 0;
        refreshed = false;
        cur = origin;
        budget = 0;
        refs = Array.make 16 0;
        len = 0;
        next = 0;
        drawn = 0;
        target = -1;
        backup = -1;
        attempt = 0;
        primary_rid = -1;
        backup_rid = -1;
        hedged = false;
        primary_probe = false;
        backup_probe = false;
        primary_dead = false;
        backup_dead = false;
        resolved = true;
        primary_timer = Sim.no_timer;
        backup_timer = Sim.no_timer;
        hedge_timer = Sim.no_timer;
        on_primary_timeout = (fun () -> time_out t w ~backup:false);
        on_backup_timeout = (fun () -> time_out t w ~backup:true);
        on_hedge = (fun () -> hedge t w);
      }
    in
    w

let issue t ~origin ~key =
  let qid = t.next_qid in
  t.next_qid <- t.next_qid + 1;
  t.issued <- t.issued + 1;
  let issued_at = Sim.now t.sim in
  if Telemetry.active t.tel then
    Telemetry.emit t.tel (Event.Query_issue { qid; origin });
  route t (fresh_walk t ~qid ~origin ~key ~issued_at) origin Overlay.max_relay_hops

let heartbeat t ~src ~dst =
  Net.send t.net ~src ~dst ~bytes:header_bytes ~kind:Net.Maintenance (Deliver ignore)

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
    evictions = t.evictions;
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
