(** Crash-recovery workloads: one op vocabulary, one applier and one
    verifier shared by every crash driver.

    A [config] names a registered engine and an op list. The applier
    runs the ops against a fresh database (128-page pool) and keeps the
    commit-order model, optionally through a WAL-shipping standby: then
    the crash kills the primary and "recovery" is failover to the
    promoted standby. After {!Mvcc.Db.crash} and recovery the verifier
    adjudicates:

    - {b committed prefix}: the recovered committed set is a prefix of
      commit order, at least as long as the durably-acknowledged prefix
      at crash time (no durability promise on the async-shipped standby);
    - {b state}: visible rows are byte-equal to the model state at that
      prefix's horizon, and no in-flight row survived;
    - {b history}: a fresh {!Mvcc.Sichecker} accepts the committed prefix
      plus the post-recovery reads as a valid SI history;
    - {b idempotency}: running recovery a second time changes nothing.

    Any divergence raises {!Divergence}. The drivers differ only in the
    op list and where the crash lands: {!explore} at every instrumented
    crash point, {!crash_sweep} after every prefix of an op list,
    {!crash_after} (the QCheck properties) after the whole list. *)

exception Divergence of string

(** Keys stay within 1..40. Each transaction op is one serial
    transaction through the admission gate; a {!Mvcc.Db.Read_only}
    refusal (also one raised out of [Gc]) is counted, not raised. *)
type op =
  | Upsert of int * int  (** insert, or update when the key exists *)
  | Update of int * int
  | Delete of int
  | Read of int  (** a read-only transaction *)
  | Tick  (** advance simulated time 20 ms, then {!Mvcc.Db.tick} *)
  | Checkpoint  (** {!Sias_storage.Bufpool.flush_all} *)
  | Writeback  (** {!Sias_storage.Bufpool.flush_os_cache} *)
  | Gc

val pp_op : op -> string

type config = {
  engine : string;  (** registry key: "si", "si-cv", "sias", "sias-v" *)
  isolation : string;  (** isolation key: "si", "ssi", "wsi" *)
  index : string;  (** index kind: "array" or "paged" *)
  commit_mode : Sias_wal.Commitpipe.mode;
  standby : bool;  (** crash the primary, fail over to a hot standby *)
  ops : op list;
  faults : (int * Flashsim.Faultdev.profile) option;
      (** fault plan (seed, profile) on the data device; a loud
          [Corrupt_page] or [Corrupt_wal] is then an accepted outcome *)
}

val config :
  ?isolation:string ->
  ?index:string ->
  ?commit_mode:Sias_wal.Commitpipe.mode ->
  ?standby:bool ->
  ?ops:op list ->
  ?faults:int * Flashsim.Faultdev.profile ->
  string ->
  config
(** Defaults: isolation "si", index "array", sync commit, no standby, no
    faults, and the explorer stream: 60 seeded ops of every kind over 12
    keys. The workload is serial, so the schedule census is identical at
    every isolation level; an SSI/WSI run adds the check that volatile
    SIREAD/conflict state never leaks across {!Mvcc.Db.crash}. A paged
    index adds the [index.*] crash points, and a GC that trims a page
    reaches [gc.trim.post]. *)

val session : config -> Sias_chaos.Explorer.session
(** A fresh database/engine/workload instance, built at factory time —
    before the explorer arms a crash point — so setup-time WAL traffic
    never eats an armed workload site. *)

val explore :
  ?cfg:Sias_chaos.Explorer.config -> config -> Sias_chaos.Explorer.report
(** [Explorer.explore] over {!session} factories for this config. *)

val crash_after : config -> (unit, string) result
(** Run every op, crash, recover and verify; [Error] says what
    diverged. *)

(** {1 Out-of-space degradation} *)

type oos_outcome = {
  attempted : int;
  committed : int;
  read_only_errors : int;  (** writers refused with {!Mvcc.Db.Read_only} *)
  shed : int;  (** admissions refused by watermark backpressure *)
  reclaims : int;  (** WAL reclamations observed on the bus *)
  backpressure_on : int;
  backpressure_off : int;
  degraded : string option;  (** final degraded-mode reason, if entered *)
  consistent : bool;
      (** a crash after the run recovered to the verifier's satisfaction
          — exercising the checkpoint CLOG snapshot and truncated-log
          redo *)
}

val oos_run :
  ?hold:bool -> engine:string -> wal_capacity_bytes:int -> unit -> oos_outcome
(** 400 upserts over 40 keys, a tick before every tenth, against a
    finite-capacity WAL. Without [hold], reclamation keeps the workload
    running; with [hold] (a retention hold pinning the whole log)
    reclamation could free nothing, so it never checkpoints, and the
    database must refuse writers loudly (backpressure shedding or
    read-only degradation) instead. *)

(** {1 Crash-position sweep} *)

type sweep_outcome = {
  sweep : string;  (** which op list, at which WAL capacity *)
  positions : int;  (** crash positions tried: after op 1, 2, ... *)
  failures : (int * string) list;  (** [(k, why)] per failed position *)
  degraded_runs : int;
      (** positions whose run went loudly read-only before the crash *)
}

val crash_sweep : index:string -> engine:string -> unit -> sweep_outcome list
(** Two sweeps; for every [k] in [1..300], {!crash_after} the first [k]
    ops on the [index] kind:
    - upserts over 40 keys at a 20 KB WAL, with no ticks, so reclamation
      runs only at transaction begins;
    - a seeded mix of upserts, deletes, GC, checkpoints and write-backs
      at a 64 KB WAL: GC relocates live versions and trims whole pages
      while reclamation truncates the log. *)
