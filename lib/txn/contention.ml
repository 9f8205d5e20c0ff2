module Simclock = Sias_util.Simclock
module Rng = Sias_util.Rng
module Bus = Sias_obs.Bus

type settings = { seed : int }

let default_settings = { seed = 7 }

type stats = {
  mutable retries : int;
  mutable backoff_time_s : float;
  mutable give_ups : int;
  mutable shed : int;
}

type t = {
  clock : Simclock.t;
  rng : Rng.t;
  bus : Bus.t option;
  (* Resource-exhaustion backpressure (the WAL near capacity): while set,
     new transactions are shed at admission, throttling writers so
     reclamation can catch up. *)
  mutable backpressure : bool;
  stats : stats;
}

let create ?(settings = default_settings) ?bus ~clock () =
  {
    clock;
    rng = Rng.create settings.seed;
    bus;
    backpressure = false;
    stats = { retries = 0; backoff_time_s = 0.0; give_ups = 0; shed = 0 };
  }

let obs t =
  match t.bus with Some b when Bus.active b -> Some b | _ -> None

let stats t = t.stats

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

(* ---------------- admission gate ---------------- *)

type admission = Admitted | Shed

let set_backpressure t on = t.backpressure <- on
let backpressure t = t.backpressure

let admit t =
  if t.backpressure then begin
    t.stats.shed <- t.stats.shed + 1;
    (match obs t with Some b -> Bus.publish b Bus.Txn_shed | None -> ());
    Shed
  end
  else Admitted

let pp_stats fmt s =
  if s.retries > 0 || s.give_ups > 0 then
    Format.fprintf fmt "contention: %d retries (backoff %.3fs) | %d give-ups@." s.retries
      s.backoff_time_s s.give_ups;
  if s.shed > 0 then Format.fprintf fmt "contention: %d shed@." s.shed
