(** Deterministic crash-schedule enumeration over {!Crashpoint} sites.

    The explorer is engine-agnostic: callers hand it a factory of
    [session] closures (build a fresh database, run the seeded
    workload, simulate power loss, recover, verify).  It first runs one
    session in census mode to learn the reachable crash points, then
    replays the workload once per (point, hit) site with that site
    armed, and — at depth 2 — once per (workload site, recovery site)
    pair so recovery itself is crashed and re-run to fixpoint.  Every
    schedule ends with the session's [verify], which must raise on any
    divergence from the model. *)

type site = { point : string; hit : int }

type schedule = {
  workload : site option;  (** crash injected while the workload runs *)
  recovery : site list;  (** nested crashes injected during recovery *)
}

type failure = { schedule : schedule; error : string }

type report = {
  points : (string * int) list;  (** workload census: point, reach count *)
  recovery_points : (string * int) list;  (** baseline recovery census *)
  schedules_run : int;
  failures : failure list;
  truncated : bool;  (** true when [max_schedules] cut enumeration short *)
}

type session = {
  run : unit -> unit;
  crash : unit -> unit;
  recover : unit -> unit;
  verify : unit -> unit;
}

type config = {
  hits_per_point : int;
      (** how many hit indices to sample per point (1 = first reach
          only; 3 = first, middle, last) *)
  depth2 : bool;  (** also crash during recovery *)
  max_schedules : int option;  (** total schedule budget, [None] = all *)
}

val default_config : config
(** [{ hits_per_point = 3; depth2 = true; max_schedules = None }] *)

val schedule_to_string : schedule -> string
(** e.g. ["wal.fsync.pre#2 -> recovery:walcodec.redo.record#5"] *)

val explore : config -> (unit -> session) -> report
(** Runs the census pass plus one session per schedule.  Always leaves
    {!Crashpoint} disarmed on return.  Raises [Failure] if the census
    pass itself cannot complete and verify cleanly. *)

