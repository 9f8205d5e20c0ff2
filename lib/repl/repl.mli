(** WAL-shipping replication: primary → standby log streaming over a
    lossy simulated {!Link}, a hot standby that redo-applies into its own
    database context, and deterministic promotion.

    The model follows PostgreSQL streaming replication:

    - The {b sender} rides the primary's [Db.tick]: it streams flushed
      WAL records (read back through [Wal.verified_from], so only records
      the primary could itself recover from are ever shipped) past the
      standby in batches, go-back-N on loss — a cumulative standby
      acknowledgement names the highest contiguously installed LSN, and a
      silent link eventually rewinds the send cursor to it. A WAL
      retention hold registered at attach pins the primary's log tail, so
      checkpoint recycling can never outrun a lagging standby.
    - The {b standby} owns a full database context of its own. Received
      records are buffered until contiguous, installed {e verbatim} into
      its WAL ([Wal.install] preserves LSN, xid and CRC — the standby log
      is byte-equal to the shipped prefix), and synchronously flushed.
      Materialization runs the engine's ordinary [recover] ({!refresh}) —
      the standby is a continuous cross-check of crash recovery, not a
      second apply path. Read-only snapshots served after a refresh are
      bounded by the replay commit horizon.
    - {b Commit acknowledgement} gains a replication axis: [Ship_async]
      ships after local fsync and never delays commits; [Remote_flush]
      hooks [Commitpipe.set_remote_wait], so sync commits and group-commit
      fsyncs wait for the standby's flush acknowledgement (one round-trip
      covers a whole commit group). A partitioned or persistently lossy
      link degrades after bounded retries: the commit is acknowledged on
      local durability alone and {!stats}.degraded_acks counts it.
    - {b Failover}: {!promote} abandons the primary, checks the standby
      against an expected durability point (raising {!Lagging} — the loud,
      typed error — when the standby provably misses acknowledged data),
      replays to the tear point via recovery and leaves the standby
      serving reads and writes ([mark_recovered] has bumped the xid
      allocator past every replayed transaction).

    With no [attach] call the whole subsystem is inert: no ticker, no
    retention hold, no [remote_wait] hook — replication off leaves every
    default-seed run byte-identical. *)

type mode =
  | Ship_async  (** ship after local fsync; commits never wait *)
  | Remote_flush
      (** commit acknowledgement waits for the standby flush ack *)

val mode_name : mode -> string
(** ["async"] or ["remote-flush"]. *)

val mode_of_string : string -> (mode, string) result
(** Error message lists the valid modes. ["off"] is not a mode — callers
    map it to not attaching replication at all. *)

exception
  Lagging of {
    installed_lsn : int;  (** highest LSN the standby holds contiguously *)
    expected_lsn : int;  (** durability point the caller demanded *)
  }
(** Raised by {!promote} when the standby provably lacks acknowledged
    data — failing over to it would lose commits the primary confirmed. *)

type t

val attach :
  primary:Mvcc.Db.t ->
  standby:Mvcc.Db.t ->
  link:Link.t ->
  mode:mode ->
  ?retransmit_timeout:float ->
  ?max_sync_retries:int ->
  ?check:bool ->
  unit ->
  t
(** Wire replication between two database contexts. Registers a WAL
    retention hold on the primary (raises [Invalid_argument] if the
    primary's log was already truncated — attach before the first
    checkpoint), a sender ticker on the primary's [Db.tick], and — in
    [Remote_flush] mode — the commit pipeline's remote-wait hook.

    The standby context must be configured like the primary (same table
    creation order, so relation ids agree) and must never run its own
    workload; create its engine instance and pass its recovery entry
    point via {!set_refresh}.

    A ship message carries at most 64 records.
    [retransmit_timeout] (default 0.05 s) is both the go-back-N silence
    threshold and the per-retry penalty of a remote-flush round trip;
    [max_sync_retries] (default 5) bounds those retries before a commit
    degrades to local-only acknowledgement.

    [check] attaches an SI invariant checker to the {e standby}'s bus (an
    ordinary subscriber, retrievable via {!checker}) and feeds it each
    replicated transaction's logical history as its commit record
    installs — standby snapshot reads are then verified against exactly
    the replicated committed prefix. *)

val set_refresh : t -> (unit -> unit) -> unit
(** Register the standby's materialization function — typically
    [fun () -> Bufpool.drop_cache pool; E.recover standby_engine].
    {!refresh} invokes it only when records were installed since the last
    call. *)

val refresh : t -> unit
(** Materialize the standby's installed WAL prefix through the engine's
    ordinary crash-recovery path, if anything new was installed. Begin
    standby read transactions only after a refresh — the SI checker's
    history covers the installed prefix, and a stale engine state would
    (correctly) be flagged. *)

val checker : t -> Mvcc.Sichecker.t option
(** The standby-side SI checker, when [attach ~check:true]. *)

val commit_horizon : t -> int
(** Highest transaction id whose commit record the standby has installed
    — the replay commit horizon bounding standby snapshots. 0 before any
    commit arrives. *)

val installed_lsn : t -> int
(** Highest LSN installed contiguously into the standby's WAL. *)

val partition : t -> bool -> unit
(** Partition or heal the underlying link. *)

val promote : ?expect_flushed_lsn:int -> t -> unit
(** Fail over to the standby: stop shipping (the primary is presumed
    dead; its retention hold is released and in-flight messages are
    discarded), verify the standby holds everything up to
    [expect_flushed_lsn] if given (raising {!Lagging} otherwise — pass
    the primary's flushed LSN to demand zero data loss, e.g. after a
    clean remote-flush run), flush and recover. Afterwards the standby's
    engine serves reads and writes. *)

val promoted : t -> bool

type stats = {
  mode_label : string;
  ship_batches : int;
  shipped_records : int;
  shipped_bytes : int;
  installed_records : int;
  installed_lsn : int;
  acked_lsn : int;  (** sender's cumulative acknowledgement cursor *)
  lag_records : int;  (** primary flushed LSN minus standby installed LSN *)
  retransmits : int;  (** go-back-N cursor rewinds *)
  degraded_acks : int;  (** remote-flush commits acked on local durability *)
  link_sent : int;
  link_dropped : int;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
