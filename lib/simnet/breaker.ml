module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

type config = { failures : int; cooldown : float }

let default_config = { failures = 5; cooldown = 30. }

type state =
  | Closed of int  (* consecutive failures so far *)
  | Open of float  (* reopens for a probe at this time *)
  | Half_open  (* one probe in flight; admits nothing else *)

type t = {
  cfg : config;
  now : unit -> float;
  tel : Telemetry.t;
  table : (int * int, state) Hashtbl.t;
  mutable opens : int;
  mutable open_now : int;
}

let create ?(telemetry = Pgrid_telemetry.Global.get ()) cfg ~now =
  if cfg.failures < 1 then invalid_arg "Breaker.create: failures must be >= 1";
  if cfg.cooldown <= 0. then invalid_arg "Breaker.create: cooldown must be positive";
  { cfg; now; tel = telemetry; table = Hashtbl.create 64; opens = 0; open_now = 0 }

let state t ~origin ~target =
  match Hashtbl.find_opt t.table (origin, target) with
  | Some s -> s
  | None -> Closed 0

let admits t ~origin ~target =
  match state t ~origin ~target with
  | Closed _ -> true
  | Half_open -> false
  | Open until ->
    if t.now () < until then false
    else begin
      (* Cool-down elapsed: let exactly one probe through. *)
      Hashtbl.replace t.table (origin, target) Half_open;
      true
    end

let record_failure t ~origin ~target =
  match state t ~origin ~target with
  | Open _ -> ()
  | Half_open ->
    (* The probe failed: re-open for another full cool-down. *)
    Hashtbl.replace t.table (origin, target) (Open (t.now () +. t.cfg.cooldown))
  | Closed n ->
    let n = n + 1 in
    if n >= t.cfg.failures then begin
      Hashtbl.replace t.table (origin, target) (Open (t.now () +. t.cfg.cooldown));
      t.opens <- t.opens + 1;
      t.open_now <- t.open_now + 1;
      if Telemetry.active t.tel then
        Telemetry.emit t.tel (Event.Breaker_open { origin; target; failures = n })
    end
    else Hashtbl.replace t.table (origin, target) (Closed n)

let record_success t ~origin ~target =
  match state t ~origin ~target with
  | Closed 0 -> ()
  | Closed _ -> Hashtbl.replace t.table (origin, target) (Closed 0)
  | Open _ | Half_open ->
    Hashtbl.replace t.table (origin, target) (Closed 0);
    t.open_now <- max 0 (t.open_now - 1);
    if Telemetry.active t.tel then
      Telemetry.emit t.tel (Event.Breaker_close { origin; target })

let probing t ~origin ~target = state t ~origin ~target = Half_open

let abandon t ~origin ~target =
  match state t ~origin ~target with
  | Half_open ->
    (* No verdict: the cool-down is over, so the next request probes. *)
    Hashtbl.replace t.table (origin, target) (Open (t.now ()))
  | Closed _ | Open _ -> ()

let half_open t = Hashtbl.fold (fun _ s n -> if s = Half_open then n + 1 else n) t.table 0

let opens t = t.opens
let open_count t = t.open_now
