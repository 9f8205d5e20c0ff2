(** Transaction manager: xid allocation, snapshots, commit log.

    Transaction ids are the timestamps of the paper — monotonically
    increasing integers. The manager tracks which transactions are in
    progress (feeding [tx_concurrent] of new snapshots) and keeps a commit
    log (clog) recording the final status of every finished transaction,
    which the visibility check consults.

    The clog is a dense 2-bits-per-xid word-packed array: status reads
    ([status], [is_committed], [visible]) are a load, a shift and a
    mask. The GC horizon is an incrementally maintained minimum over
    active snapshot xmins, so both [status] and [horizon] are O(1) on
    the hot path. A manager belongs to the domain that created it and
    takes no locks; multicore runs give every domain its own. *)

type status = In_progress | Committed | Aborted

type t = {
  xid : int;
  snapshot : Snapshot.t;
  start_time : float;
}

type mgr

val create_mgr : unit -> mgr

val begin_txn : ?now:float -> mgr -> t
(** Allocate the next xid and take a snapshot of the active set. *)

val commit : mgr -> t -> unit
(** Raises [Invalid_argument] if the transaction is not in progress. *)

val abort : mgr -> t -> unit

val status : mgr -> int -> status
(** Status of an xid. Unknown xids are [Aborted]: after a crash a heap
    page may carry a tuple whose xid left no durable WAL trace, and no
    durable trace means no commit record. *)

val is_committed : mgr -> int -> bool

val active_xids : mgr -> int list
val last_xid : mgr -> int

val horizon : mgr -> int
(** The GC horizon: every transaction with xid below this value that
    committed is visible to all current and future snapshots (PostgreSQL's
    RecentGlobalXmin). Computed as the minimum, over active transactions,
    of the lowest xid their snapshot considers in progress; when nothing
    is active it is the next xid to be assigned. *)

val visible : mgr -> Snapshot.t -> int -> bool
(** [visible mgr snap c]: the full SI visibility predicate for a version
    created by [c] — own write, or snapshot-visible and committed. *)

val mark_recovered : mgr -> xid:int -> committed:bool -> unit
(** Recovery: record the final status of a transaction found in the log.
    Transactions with no commit record are implicitly aborted. *)

val clog_image : mgr -> int * string
(** Snapshot the commit log as [(next_xid, dense image)] for embedding
    in a checkpoint WAL record, so truncating the log below that record
    cannot lose the outcome of already-adjudicated transactions. *)

val clog_restore : mgr -> next_xid:int -> image:string -> unit
(** Recovery from a checkpoint record: install the snapshotted commit
    log, flipping in-progress entries to aborted (their commit records,
    if any, are in the retained tail and overlay this afterwards). The
    xid counter only moves forward. *)

val reset_active : mgr -> unit
(** Crash semantics: no volatile transaction state survives. The
    in-flight set, pending commit-lsn notes, the whole commit log and
    the xid counter are wiped — a verdict recorded only in memory (a
    commit whose WAL record was never flushed) must not outlive the
    process. Recovery re-derives every durable verdict with
    [mark_recovered] / [clog_restore], which also restore [next_xid]
    past every xid with a durable trace. *)

(** {2 Hint-bit durability gate}

    Tuple hint bits persist to storage, so a "committed" hint must never
    reach disk before the commit record itself is durable: a crash in
    between would recover the xid as aborted while the hint says
    committed. Commits whose WAL record is not yet flushed are noted via
    [note_commit_lsn]; [durably_committed] consults the registered
    flushed-lsn probe and clears the note once the record is on disk. *)

val set_flushed_probe : mgr -> (unit -> int) -> unit
(** Register a probe returning the highest flushed WAL lsn. *)

val note_commit_lsn : mgr -> xid:int -> lsn:int -> unit
(** Record that [xid]'s commit record sits at [lsn] and is not yet known
    durable (used by group/async commit). *)

val durably_committed : mgr -> int -> bool
(** Whether a committed [xid]'s commit record is known durable, i.e. a
    committed hint bit may be persisted for it. Always true when no lsn
    was noted (synchronous commit, recovery, no WAL). *)
