(** Typed observability event bus.

    Every layer of the stack (device model, buffer pool, WAL, background
    writer, contention manager, engines, TPC-C driver) publishes into one
    bus per database context; any number of consumers — the SI invariant
    checker, the metrics recorder, the span tracer — subscribe to it.

    The event type is extensible so higher layers can add constructors
    carrying their own payload types (the MVCC layer adds row-level
    events with [Value.t array] payloads) without this library depending
    on them.

    {b Overhead when off}: publishing sites must guard event construction
    with {!active}; with no subscribers the whole observability path costs
    one branch per site and allocates nothing. *)

type event = ..

type io_op = Io_read | Io_write

type event +=
  | Txn_begin of { xid : int }
  | Txn_commit of { xid : int }
  | Txn_abort of { xid : int }
  | Txn_retry of { attempt : int }  (** a conflict-aborted tx is resubmitted *)
  | Txn_shed  (** the admission gate turned a request away *)
  | Page_hit of { rel : int; block : int }
  | Page_miss of { rel : int; block : int }
  | Page_evict of { rel : int; block : int; dirty : bool }
  | Page_flush of { rel : int; block : int; sync : bool }
  | Page_repair of { rel : int; block : int }
      (** a corrupt page was rebuilt from WAL full-page images *)
  | Page_trim of { rel : int; block : int }
  | Wal_append of { kind : string; bytes : int }
  | Wal_flush of { sync : bool; bytes : int }
  | Commit_group of { size : int }
      (** one commit-group fsync covered [size] member commits (group
          commit; [size - 1] per-commit fsyncs were saved) *)
  | Device_io of {
      device : string;
      op : io_op;
      sector : int;
      bytes : int;
      latency_s : float;  (** queueing + service time of this request *)
    }
  | Device_trim of { device : string; sector : int; bytes : int }
  | Fault_hit of { kind : string; sector : int }
      (** an injected fault bit: transient read error, checksum failure,
          torn data-page or WAL write *)
  | Hint_set of { rel : int; committed : bool }
      (** a tuple hint bit was persisted: the creating/invalidating
          transaction's fate is now cached on the tuple itself *)
  | Hint_hit of { rel : int }
      (** a visibility check was answered by a hint bit — one CLOG
          lookup avoided *)
  | Checkpoint of { pages : int }
  | Bgwriter_pass of { pages : int }
  | Ftl_gc of { device : string; moved_pages : int; erases : int }
      (** flash garbage collection performed inside a host request *)
  | Span of { cat : string; name : string; tid : int; t0 : float; t1 : float }
      (** a timed operation, in absolute simulated seconds *)
  | Repl_ship of { records : int; bytes : int }
      (** the replication sender handed a batch of WAL records to the link *)
  | Repl_install of { records : int }
      (** the standby installed contiguous records into its own log *)
  | Repl_ack of { lsn : int }
      (** a cumulative standby acknowledgement reached the sender *)
  | Repl_degraded
      (** a remote-flush commit gave up waiting on the standby (partition
          or persistent loss) and acknowledged on local durability alone *)
  | Wal_reclaim of { upto_lsn : int; freed_bytes : int }
      (** a checkpoint taken between operations under capacity
          pressure recycled the log below [upto_lsn], freeing
          [freed_bytes] *)
  | Backpressure of { on : bool; usage : float }
      (** the admission gate toggled resource-exhaustion shedding at the
          given WAL usage fraction *)
  | Degraded of { subsystem : string; reason : string }
      (** a subsystem fell back to loud read-only degraded mode instead
          of corrupting state or aborting the process *)
  | Ssi_siread of { xid : int; rel : int; predicate : bool }
      (** serializable mode took a SIREAD lock — per-row, or a
          whole-relation predicate lock ([predicate = true]) for scans *)
  | Ssi_rw_edge of { reader : int; writer : int; lineage : bool }
      (** an rw-antidependency edge [reader -> writer] was recorded;
          [lineage] tells whether it was discovered by walking co-located
          SIAS version lineage rather than probing the lock table *)
  | Ssi_pivot_abort of { xid : int; confirmed : bool }
      (** dangerous-structure detection aborted a pivot; [confirmed]
          means a neighbor on the structure had already committed (the
          necessary condition for a real cycle), [false] marks a
          conservative (possibly false-positive) abort *)
  | Wsi_certify_abort of { xid : int }
      (** write-snapshot isolation's read-write certification failed: a
          key in the read set was overwritten by a concurrent committed
          transaction *)
  | Ssi_safe_snapshot of { xid : int }
      (** a read-only transaction began on a safe snapshot (no concurrent
          transactions) and is exempt from SIREAD tracking *)
  | Index_split of { rel : int; level : int }
      (** a paged-index node at [level] (0 = leaf) split, allocating a
          new right sibling in relation [rel] *)
  | Index_merge of { rel : int; level : int }
      (** an emptied paged-index node at [level] was unlinked into its
          left sibling *)
  | Index_page_io of { rel : int; block : int; deltas : int }
      (** one index page received [deltas] logged slot deltas from a
          WAL-first structural change (normal path or redo) *)

val io_op_to_string : io_op -> string
(** ["read"] or ["write"]. *)

type t

val create : unit -> t
(** A bus with no subscribers: {!active} is [false] and {!publish} is a
    no-op. The bus is owned by the creating domain: {!publish} and
    {!subscribe} from any other domain fail loudly, because subscribers
    are unsynchronized closures. Multicore runs create one bus per
    domain, inside that domain's worker. *)

val subscribe : t -> (event -> unit) -> unit
(** Add a consumer; it sees every subsequently published event, in
    publication order, after previously registered consumers. *)

val active : t -> bool
(** [true] once anyone subscribed. Publishing sites check this before
    building an event so the disabled path allocates nothing. *)

val publish : t -> event -> unit

val subscriber_count : t -> int
