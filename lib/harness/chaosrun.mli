(** Crash-schedule sessions and out-of-space scenarios for the chaos
    explorer.

    A [config] describes one deterministic seeded workload over a
    registered engine — optionally through the WAL-shipping standby, in
    which case the crash kills the primary and "recovery" is failover to
    the promoted standby. {!session} packages it as an
    {!Sias_chaos.Explorer.session} whose [verify] adjudicates:

    - {b committed prefix}: the recovered committed set is a prefix of
      commit order, at least as long as the durably-acknowledged prefix
      at crash time (no durability promise on the async-shipped standby);
    - {b state}: visible rows are byte-equal to the model state at that
      prefix's horizon, and no in-flight row survived;
    - {b history}: a fresh {!Mvcc.Sichecker} accepts the committed prefix
      plus the post-recovery reads as a valid SI history;
    - {b idempotency}: running recovery a second time changes nothing.

    Any divergence raises {!Divergence}, which the explorer records as a
    schedule failure. *)

exception Divergence of string

type config = {
  engine : string;  (** registry key: "si", "si-cv", "sias", "sias-v" *)
  isolation : string;  (** isolation key: "si", "ssi", "wsi" *)
  index : string;  (** index kind: "array" or "paged" *)
  commit_mode : Sias_wal.Commitpipe.mode;
  standby : bool;  (** crash the primary, fail over to a hot standby *)
  ops : int;  (** workload length (committed txns, ticks, reads) *)
  seed : int;  (** LCG seed: same seed, same schedule, same census *)
}

val config :
  ?isolation:string ->
  ?index:string ->
  ?commit_mode:Sias_wal.Commitpipe.mode ->
  ?standby:bool ->
  ?ops:int ->
  ?seed:int ->
  string ->
  config
(** Defaults: isolation "si", index "array", sync commit, no standby,
    60 ops, seed 11. The workload is serial, so the schedule census is
    identical at every isolation level; what an SSI/WSI run adds is the
    check that the volatile SIREAD/conflict state never leaks across
    {!Mvcc.Db.crash} — a commit refused after recovery raises
    {!Divergence}. An [index:"paged"] run additionally walks through the
    paged-index crash points ([index.fpw.pre], [index.wal.pre-apply],
    [index.split.mid]), adjudicating WAL-logged index recovery. *)

val session : config -> Sias_chaos.Explorer.session
(** A fresh database/engine/workload instance. The database is built
    here — at factory time, before the explorer arms a crash point — so
    setup-time WAL traffic never eats an armed workload site. *)

val explore :
  ?cfg:Sias_chaos.Explorer.config -> config -> Sias_chaos.Explorer.report
(** [Explorer.explore] over {!session} factories for this config. *)

(** {1 Out-of-space degradation} *)

type oos_outcome = {
  attempted : int;
  committed : int;
  read_only_errors : int;  (** writers refused with {!Mvcc.Db.Read_only} *)
  shed : int;  (** admissions refused by watermark backpressure *)
  reclaims : int;
      (** WAL reclamations observed on the bus (each runs between
          operations, at a transaction begin or a tick) *)
  backpressure_on : int;
  backpressure_off : int;
  degraded : string option;  (** final degraded-mode reason, if entered *)
  consistent : bool;
      (** after restart, the recovered state served exactly the committed
          model — exercising the checkpoint CLOG snapshot and
          truncated-log redo *)
}

val oos_run :
  ?hold:bool ->
  ?ops:int ->
  engine:string ->
  wal_capacity_bytes:int ->
  unit ->
  oos_outcome
(** Drive an upsert workload against a finite-capacity WAL. Without
    [hold], reclamation keeps the workload running indefinitely; with
    [hold] (a retention hold pinning the whole log) reclamation could free
    nothing, so it never checkpoints, and the database must refuse
    writers loudly (backpressure shedding or read-only degradation)
    instead.
    Default 400 ops. *)

(** {1 Crash-position sweep} *)

type sweep_outcome = {
  positions : int;  (** crash positions tried: after op 1, 2, ... *)
  failures : (int * string) list;
      (** [(k, why)] for every position [k] whose recovery raised or
          whose recovered rows differ from the committed model *)
  degraded_runs : int;
      (** positions whose run went loudly read-only before the crash *)
}

val crash_sweep : index:string -> engine:string -> unit -> sweep_outcome
(** For every [k] in [1..300]: a fresh database with
    a 128-page pool and a 20 KB WAL, [k] ops of the {!oos_run} upsert
    workload over 40 keys with no ticks (so reclamation runs only at
    transaction begins), a crash, recovery, and a check that the
    recovered rows equal the committed model. [index] is "array" or
    "paged". *)
