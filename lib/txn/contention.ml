module Simclock = Sias_util.Simclock
module Rng = Sias_util.Rng
module Bus = Sias_obs.Bus

type policy = No_wait | Wait_die | Wound_wait | Detect

let policy_to_string = function
  | No_wait -> "no-wait"
  | Wait_die -> "wait-die"
  | Wound_wait -> "wound-wait"
  | Detect -> "detect"

let all_policies = [ No_wait; Wait_die; Wound_wait; Detect ]

let policy_of_string = function
  | "nowait" -> Ok No_wait (* historical alias *)
  | s -> (
      match
        List.find_opt (fun p -> policy_to_string p = s) all_policies
      with
      | Some p -> Ok p
      | None ->
          Error
            (Printf.sprintf "unknown conflict policy %S; valid policies: %s" s
               (String.concat ", " (List.map policy_to_string all_policies))))

type settings = {
  policy : policy;
  seed : int;
  max_wait_s : float;
  max_inflight : int option;
  queue_capacity : int;
  queue_timeout_s : float;
}

let default_settings =
  {
    policy = No_wait;
    seed = 7;
    max_wait_s = 0.05;
    max_inflight = None;
    queue_capacity = 16;
    queue_timeout_s = 0.1;
  }

type stats = {
  mutable conflicts : int;
  mutable waits : int;
  mutable wait_time_s : float;
  mutable wait_timeouts : int;
  mutable dies : int;
  mutable wounds : int;
  mutable deadlocks : int;
  mutable victim_aborts : int;
  mutable retries : int;
  mutable backoff_time_s : float;
  mutable give_ups : int;
  mutable admitted : int;
  mutable queued : int;
  mutable shed : int;
  mutable max_queue_depth : int;
}

let zero_stats () =
  {
    conflicts = 0;
    waits = 0;
    wait_time_s = 0.0;
    wait_timeouts = 0;
    dies = 0;
    wounds = 0;
    deadlocks = 0;
    victim_aborts = 0;
    retries = 0;
    backoff_time_s = 0.0;
    give_ups = 0;
    admitted = 0;
    queued = 0;
    shed = 0;
    max_queue_depth = 0;
  }

type t = {
  settings : settings;
  clock : Simclock.t;
  lockmgr : Lockmgr.t;
  rng : Rng.t;
  doomed : (int, unit) Hashtbl.t;
  bus : Bus.t option;
  mutable inflight : int;
  mutable queue_depth : int;
  (* Resource-exhaustion backpressure (e.g. the WAL near capacity): while
     set, new transactions are shed at admission regardless of the
     in-flight cap, throttling writers so reclamation can catch up. *)
  mutable backpressure : bool;
  stats : stats;
}

exception Wounded of int

let create ?(settings = default_settings) ?bus ~clock ~lockmgr () =
  {
    settings;
    clock;
    lockmgr;
    rng = Rng.create settings.seed;
    doomed = Hashtbl.create 16;
    bus;
    inflight = 0;
    queue_depth = 0;
    backpressure = false;
    stats = zero_stats ();
  }

let obs t =
  match t.bus with Some b when Bus.active b -> Some b | _ -> None

let note_shed t =
  t.stats.shed <- t.stats.shed + 1;
  match obs t with Some b -> Bus.publish b Bus.Txn_shed | None -> ()

let settings t = t.settings
let stats t = t.stats

let is_doomed t ~xid = Hashtbl.mem t.doomed xid
let doom t xid = Hashtbl.replace t.doomed xid ()
let note_victim_abort t = t.stats.victim_aborts <- t.stats.victim_aborts + 1
let finished t ~xid = Hashtbl.remove t.doomed xid

(* ---------------- lock-conflict resolution ---------------- *)

type lock_outcome = Granted | Abort_self

(* A blocked transaction cannot really be overtaken in a serial
   simulation, so a wait is simulated: charge the clock for the whole
   grace period and re-probe the lock once. *)
let simulate_wait t =
  t.stats.waits <- t.stats.waits + 1;
  t.stats.wait_time_s <- t.stats.wait_time_s +. t.settings.max_wait_s;
  Simclock.advance t.clock t.settings.max_wait_s

let wait_then_retry t ~xid ~rel ~key ~keep_edge =
  simulate_wait t;
  match Lockmgr.try_acquire t.lockmgr ~xid ~rel ~key with
  | Lockmgr.Granted ->
      Lockmgr.stop_waiting t.lockmgr ~xid;
      Granted
  | Lockmgr.Conflict _ | Lockmgr.Deadlock ->
      t.stats.wait_timeouts <- t.stats.wait_timeouts + 1;
      (* Under [Detect] the edge stays: the transaction is still logically
         stalled on that lock until it aborts (release clears it) or gets
         the lock later, and interleaved peers must see the edge to close
         cycles against it. *)
      if not keep_edge then Lockmgr.stop_waiting t.lockmgr ~xid;
      Abort_self

(* The cycle closed by the rejected edge [xid -> owner] is
   xid -> owner -> ... -> xid; collect its members from the wait-for
   graph. *)
let cycle_members t ~xid ~owner =
  let rec go acc cur steps =
    if steps > 1024 || cur = xid then acc
    else
      match Lockmgr.waits_for t.lockmgr ~xid:cur with
      | None -> acc
      | Some next -> go (cur :: acc) next (steps + 1)
  in
  xid :: go [ owner ] owner 0

let resolve_detect t ~xid ~rel ~key ~owner =
  match Lockmgr.wait_on t.lockmgr ~xid ~owner with
  | Lockmgr.Granted | Lockmgr.Conflict _ ->
      wait_then_retry t ~xid ~rel ~key ~keep_edge:true
  | Lockmgr.Deadlock ->
      t.stats.deadlocks <- t.stats.deadlocks + 1;
      let victim = List.fold_left max xid (cycle_members t ~xid ~owner) in
      if victim = xid then begin
        Lockmgr.stop_waiting t.lockmgr ~xid;
        Abort_self
      end
      else begin
        doom t victim;
        Lockmgr.stop_waiting t.lockmgr ~xid:victim;
        ignore (Lockmgr.wait_on t.lockmgr ~xid ~owner);
        wait_then_retry t ~xid ~rel ~key ~keep_edge:true
      end

let acquire t ~xid ~rel ~key =
  if is_doomed t ~xid then begin
    note_victim_abort t;
    Abort_self
  end
  else
    match Lockmgr.try_acquire t.lockmgr ~xid ~rel ~key with
    | Lockmgr.Granted ->
        Lockmgr.stop_waiting t.lockmgr ~xid;
        Granted
    | Lockmgr.Deadlock -> Abort_self
    | Lockmgr.Conflict owner -> (
        t.stats.conflicts <- t.stats.conflicts + 1;
        match t.settings.policy with
        | No_wait -> Abort_self
        | Wait_die ->
            (* xids are assigned in start order: smaller xid = older *)
            if xid < owner then wait_then_retry t ~xid ~rel ~key ~keep_edge:false
            else begin
              t.stats.dies <- t.stats.dies + 1;
              Abort_self
            end
        | Wound_wait ->
            if xid < owner then begin
              doom t owner;
              t.stats.wounds <- t.stats.wounds + 1
            end;
            wait_then_retry t ~xid ~rel ~key ~keep_edge:false
        | Detect -> resolve_detect t ~xid ~rel ~key ~owner)

(* ---------------- retry orchestrator ---------------- *)

type retry_config = {
  max_attempts : int;
  base_backoff_s : float;
  deadline_s : float option;
}

(* Backoff doubles from [base_backoff_s] up to this cap. *)
let max_backoff_s = 0.25

let retry_config ?(max_attempts = 6) ?(base_backoff_s = 0.002) ?deadline_s () =
  if max_attempts < 1 then invalid_arg "Contention.retry_config: max_attempts < 1";
  { max_attempts; base_backoff_s; deadline_s }

type give_up_reason = Attempts_exhausted | Deadline_exceeded

let give_up_reason_to_string = function
  | Attempts_exhausted -> "attempts exhausted"
  | Deadline_exceeded -> "deadline exceeded"

type 'a run_result = Completed of 'a * int | Gave_up of give_up_reason * int

let run_with_retries t ~cfg ~retryable ~f =
  let deadline =
    match cfg.deadline_s with
    | Some d -> Simclock.now t.clock +. d
    | None -> infinity
  in
  let rec go attempt =
    let r = f ~attempt in
    if not (retryable r) then Completed (r, attempt)
    else if attempt >= cfg.max_attempts then begin
      t.stats.give_ups <- t.stats.give_ups + 1;
      Gave_up (Attempts_exhausted, attempt)
    end
    else begin
      let backoff =
        Float.min max_backoff_s
          (cfg.base_backoff_s *. (2.0 ** float_of_int (attempt - 1)))
      in
      let backoff = backoff *. (0.5 +. Rng.float t.rng 0.5) in
      if Simclock.now t.clock +. backoff > deadline then begin
        t.stats.give_ups <- t.stats.give_ups + 1;
        Gave_up (Deadline_exceeded, attempt)
      end
      else begin
        Simclock.advance t.clock backoff;
        t.stats.backoff_time_s <- t.stats.backoff_time_s +. backoff;
        t.stats.retries <- t.stats.retries + 1;
        (match obs t with
        | Some b -> Bus.publish b (Bus.Txn_retry { attempt = attempt + 1 })
        | None -> ());
        go (attempt + 1)
      end
    end
  in
  go 1

(* ---------------- admission control ---------------- *)

type admission = Admitted | Shed

let set_backpressure t on = t.backpressure <- on
let backpressure t = t.backpressure

(* Crash semantics: in-flight and queued transactions died with the
   process; doom marks are meaningless for xids that no longer exist. *)
let reset_admission t =
  t.inflight <- 0;
  t.queue_depth <- 0;
  t.backpressure <- false;
  Hashtbl.reset t.doomed

let admit t =
  if t.backpressure then begin
    note_shed t;
    Shed
  end
  else
  match t.settings.max_inflight with
  | None -> Admitted
  | Some cap ->
      if t.inflight < cap then begin
        t.inflight <- t.inflight + 1;
        t.stats.admitted <- t.stats.admitted + 1;
        Admitted
      end
      else if t.queue_depth >= t.settings.queue_capacity then begin
        note_shed t;
        Shed
      end
      else begin
        t.queue_depth <- t.queue_depth + 1;
        t.stats.queued <- t.stats.queued + 1;
        if t.queue_depth > t.stats.max_queue_depth then
          t.stats.max_queue_depth <- t.queue_depth;
        (* The queue residence is charged in full: in the serial
           simulation no release can interleave with the wait itself, so
           a queued request only proceeds if a slot is free by the time
           the timeout has been paid. *)
        Simclock.advance t.clock t.settings.queue_timeout_s;
        t.queue_depth <- t.queue_depth - 1;
        if t.inflight < cap then begin
          t.inflight <- t.inflight + 1;
          t.stats.admitted <- t.stats.admitted + 1;
          Admitted
        end
        else begin
          note_shed t;
          Shed
        end
      end

let release t = if t.inflight > 0 then t.inflight <- t.inflight - 1

let inflight t = t.inflight

let pp_stats fmt s =
  if s.conflicts > 0 || s.waits > 0 then
    Format.fprintf fmt "contention: %d lock conflicts | %d waits (%.3fs, %d timeouts)@."
      s.conflicts s.waits s.wait_time_s s.wait_timeouts;
  if s.dies > 0 || s.wounds > 0 || s.deadlocks > 0 || s.victim_aborts > 0 then
    Format.fprintf fmt "contention: %d dies | %d wounds | %d deadlocks | %d victim aborts@."
      s.dies s.wounds s.deadlocks s.victim_aborts;
  if s.retries > 0 || s.give_ups > 0 then
    Format.fprintf fmt "contention: %d retries (backoff %.3fs) | %d give-ups@." s.retries
      s.backoff_time_s s.give_ups;
  if s.admitted > 0 || s.queued > 0 || s.shed > 0 then
    Format.fprintf fmt "contention: %d admitted | %d queued | %d shed | max queue depth %d@."
      s.admitted s.queued s.shed s.max_queue_depth
