(** Contention management: conflict policies, bounded retry with backoff,
    and admission control.

    The engines serialize writers per data item through {!Lockmgr} under
    first-updater-wins. This module decides what happens on a lock
    conflict — abort at once ([No_wait], the historical behaviour), wait
    with an age-based priority ([Wait_die], [Wound_wait]), or wait under
    explicit deadlock detection on the wait-for graph ([Detect]) — and
    gives clients a retry orchestrator (capped exponential backoff with
    deterministic jitter, attempt- and deadline-bounded) plus a
    max-in-flight admission gate with queue-timeout shedding.

    The execution substrate is a serial discrete-event simulation: a
    blocked transaction cannot actually be overtaken while it "waits", so
    waiting is simulated — the simulated clock is charged and the lock is
    re-probed once. Under [Wound_wait] and [Detect] the loser of a
    priority or cycle decision is {e doomed}: its next lock acquisition
    fails, and a doomed transaction reaching commit is aborted and
    {!Wounded} is raised. Progress under contention comes from the
    client-level retry loop, exactly as in DBT2/TPC-C practice. *)

type policy =
  | No_wait  (** conflicting request aborts immediately (default) *)
  | Wait_die  (** older requesters wait, younger ones die *)
  | Wound_wait  (** older requesters wound (doom) the owner, younger wait *)
  | Detect  (** wait-for-graph deadlock detection, youngest victim *)

val policy_to_string : policy -> string
val policy_of_string : string -> (policy, string) result
val all_policies : policy list

type settings = {
  policy : policy;
  seed : int;  (** seeds the backoff-jitter generator *)
  max_wait_s : float;  (** simulated time charged per futile lock wait *)
  max_inflight : int option;  (** admission cap; [None] = unlimited *)
  queue_capacity : int;  (** waiting slots beyond the in-flight cap *)
  queue_timeout_s : float;  (** queue residence before a request is shed *)
}

val default_settings : settings
(** [No_wait], unlimited admission: byte-for-byte the historical
    behaviour — no waiting, no clock charges, no extra randomness. *)

type stats = {
  mutable conflicts : int;  (** lock conflicts that reached the policy *)
  mutable waits : int;  (** simulated waits performed *)
  mutable wait_time_s : float;
  mutable wait_timeouts : int;  (** waits that expired without the lock *)
  mutable dies : int;  (** wait-die: younger requester died *)
  mutable wounds : int;  (** wound-wait: owner doomed by an older requester *)
  mutable deadlocks : int;  (** detect: cycles found in the wait-for graph *)
  mutable victim_aborts : int;  (** doomed transactions observed aborting *)
  mutable retries : int;  (** orchestrator resubmissions *)
  mutable backoff_time_s : float;
  mutable give_ups : int;  (** orchestrator runs that surfaced [Gave_up] *)
  mutable admitted : int;
  mutable queued : int;  (** admissions that waited in the queue *)
  mutable shed : int;  (** requests dropped by the admission gate *)
  mutable max_queue_depth : int;
}

type t

exception Wounded of int
(** Raised by {!Db.commit} (via {!is_doomed}) when a wounded/victim
    transaction reaches commit; the transaction has been aborted. *)

val create :
  ?settings:settings ->
  ?bus:Sias_obs.Bus.t -> clock:Sias_util.Simclock.t -> lockmgr:Lockmgr.t -> unit -> t

val settings : t -> settings
val stats : t -> stats

(** {1 Lock-conflict resolution} *)

type lock_outcome =
  | Granted
  | Abort_self  (** the requester must abort (map to [Write_conflict]) *)

val acquire : t -> xid:int -> rel:int -> key:int -> lock_outcome
(** Acquire the (rel, key) writer lock for [xid], resolving conflicts per
    the configured policy. Doomed transactions always get [Abort_self]. *)

val is_doomed : t -> xid:int -> bool
val note_victim_abort : t -> unit
val finished : t -> xid:int -> unit
(** Forget per-transaction state (doom marks); call on commit/abort. *)

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

val give_up_reason_to_string : give_up_reason -> string

type 'a run_result =
  | Completed of 'a * int  (** final result, attempts used *)
  | Gave_up of give_up_reason * int

val run_with_retries :
  t -> cfg:retry_config -> retryable:('a -> bool) -> f:(attempt:int -> 'a) -> 'a run_result
(** Run [f] until it returns a non-retryable result, sleeping (simulated)
    [min max_backoff (base * 2^(attempt-1))] scaled by a deterministic
    jitter in [0.5, 1) between attempts. Bounded by [max_attempts] and by
    [deadline_s] of simulated time measured from the first attempt. *)

(** {1 Admission control} *)

type admission = Admitted | Shed

val admit : t -> admission
(** Reserve an in-flight slot. Over the cap, the request queues (bounded
    by [queue_capacity]) and is charged up to [queue_timeout_s] of
    simulated time before being shed. Unlimited gates are free no-ops. *)

val release : t -> unit
val inflight : t -> int

val set_backpressure : t -> bool -> unit
(** Resource-exhaustion gate (e.g. the WAL near its capacity): while on,
    {!admit} sheds every request immediately — even with no in-flight
    cap configured — so writers back off until reclamation catches up.
    Shed counts and [Txn_shed] bus events account for it as usual. *)

val backpressure : t -> bool

val reset_admission : t -> unit
(** Crash semantics: zero the in-flight/queue occupancy, clear doom
    marks and release backpressure — no admitted transaction survived
    the process. *)

val pp_stats : Format.formatter -> stats -> unit
(** One line per non-zero counter group; prints nothing when every
    counter is zero. *)
