(** Contention management: bounded retry with backoff and the admission
    gate.

    Write-write conflicts follow first-updater-wins with no waiting (paper
    Algorithm 3 line 7): the engines take the (relation, item) writer lock
    in {!Lockmgr} and a request that finds it held aborts at once. This
    module gives clients what remains around that rule: a retry
    orchestrator (capped exponential backoff with deterministic jitter,
    attempt- and deadline-bounded) and an admission gate that sheds new
    transactions while the WAL is near its capacity. *)

type settings = { seed : int  (** seeds the backoff-jitter generator *) }

val default_settings : settings

type stats = {
  mutable retries : int;  (** orchestrator resubmissions *)
  mutable backoff_time_s : float;
  mutable give_ups : int;  (** orchestrator runs that surfaced [Gave_up] *)
  mutable shed : int;  (** requests dropped by the admission gate *)
}

type t

val create : ?settings:settings -> ?bus:Sias_obs.Bus.t -> clock:Sias_util.Simclock.t -> unit -> t
val stats : t -> stats

(** {1 Retry orchestrator} *)

type retry_config = {
  max_attempts : int;  (** total attempts, >= 1; 1 = no retry *)
  base_backoff_s : float;  (** first backoff; it doubles up to 250 ms *)
  deadline_s : float option;
      (** per-transaction deadline, simulated seconds from first attempt *)
}

val retry_config :
  ?max_attempts:int ->
  ?base_backoff_s:float ->
  ?deadline_s:float ->
  unit ->
  retry_config
(** Defaults: 6 attempts, 2 ms base doubling to a 250 ms cap, no
    deadline. *)

type give_up_reason = Attempts_exhausted | Deadline_exceeded

type 'a run_result =
  | Completed of 'a * int  (** final result, attempts used *)
  | Gave_up of give_up_reason * int

val run_with_retries :
  t -> cfg:retry_config -> retryable:('a -> bool) -> f:(attempt:int -> 'a) -> 'a run_result
(** Run [f] until it returns a non-retryable result, sleeping (simulated)
    [min max_backoff (base * 2^(attempt-1))] scaled by a deterministic
    jitter in [0.5, 1) between attempts. Bounded by [max_attempts] and by
    [deadline_s] of simulated time measured from the first attempt. *)

(** {1 Admission gate} *)

type admission = Admitted | Shed

val admit : t -> admission
(** Free while backpressure is off; while it is on, every request is shed
    at once (counted, and published as [Txn_shed]). *)

val set_backpressure : t -> bool -> unit
(** Resource-exhaustion gate (the WAL near its capacity): while on,
    {!admit} sheds so writers back off until reclamation catches up. *)

val backpressure : t -> bool

val pp_stats : Format.formatter -> stats -> unit
(** One line per non-zero counter group; prints nothing when every
    counter is zero. *)
