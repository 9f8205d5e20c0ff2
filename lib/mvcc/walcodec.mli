(** WAL payload encoding, redo, and page repair for heap operations.

    Heap changes are logged physiologically: the target TID plus the full
    item image (empty for slot deletes). Redo replays records in LSN order
    onto the surviving page images, guarded by the page LSN so pages that
    were flushed after a record was written are not double-applied.

    The first modification of a page after a checkpoint logs a {e full
    page write} — the whole post-change image — instead of the item
    record, so a data page torn by a crash mid-write can be rebuilt:
    install the latest image, replay the item records after it
    ({!repair_page}). Replay reads the log through
    [Wal.verified_from], so a torn WAL tail stops redo at the last intact
    record and mid-log corruption fails loudly instead of replaying past
    damage. *)

exception Redo_divergence of { rel : int; block : int; detail : string }
(** Redo replayed a verified record against a page whose content
    contradicts it (insert landed in the wrong slot, update no longer
    fits). The log and the page disagree: a redo-rule or append-discipline
    bug, raised loudly rather than replaying past it. *)

val encode : ?append_only:bool -> Sias_storage.Tid.t -> bytes -> bytes
val decode : bytes -> Sias_storage.Tid.t * bool * bytes

val encode_deltas : Sias_index.Paged_btree.delta list -> bytes
(** [Ix_batch] payload: one paged-index structural change as an atomic
    list of per-page slot deltas (the record CRC makes a multi-page
    split or merge all-or-nothing at replay). *)

val decode_deltas : bytes -> Sias_index.Paged_btree.delta list

val log_index : Db.t -> rel:int -> Sias_index.Paged_btree.delta list -> int
(** The WAL-first logger injected into {!Sias_index.Paged_btree}:
    full-page-write protect every touched pre-existing block on its
    first post-checkpoint modification, then append the change as one
    [Ix_batch] record and return its LSN. The tree applies the deltas
    only after this returns. *)

val log_heap :
  ?append_only:bool ->
  Db.t ->
  xid:int ->
  rel:int ->
  kind:Sias_wal.Wal.kind ->
  tid:Sias_storage.Tid.t ->
  item:bytes ->
  unit
(** Append the record and stamp the target page with its LSN; on the
    page's first post-checkpoint modification a [Full_page] image is
    logged instead (it subsumes the item record). *)

val log_trim : Db.t -> rel:int -> block:int -> (unit -> unit) -> unit
(** GC's page discard, log first: append the [Trim] record, run the
    discard (the pool's write-ahead gate makes the record durable before
    the device trim), reach crash point [gc.trim.post], then stamp the
    emptied page with the record's LSN. *)

val redo : Db.t -> since_lsn:int -> unit
(** Replay verified heap and paged-index records with LSN >=
    [since_lsn]. Array indexes and VID_maps are not logged: engines
    rebuild them from the heap after redo; paged-index pages come back
    byte-exact from their [Ix_batch] deltas and full-page images.
    Raises [Wal.Corrupt_wal] on mid-log corruption. *)

val replay_clog : Db.t -> unit
(** Rebuild transaction statuses from commit/abort records over the whole
    retained log. Checkpoint records carry a CLOG snapshot taken when the
    log below them was reclaimed; the snapshot is restored first so
    verdicts of transactions whose final records were truncated away
    survive. Transactions lacking both a snapshot verdict and a final
    record are treated as aborted. *)

val repair_page : Db.t -> rel:int -> block:int -> Sias_storage.Page.t option
(** Rebuild a heap page from the WAL alone (latest full-page image plus
    subsequent records, or from scratch when the whole log is retained).
    [None] when the log cannot prove the page's content — blocks that
    were never WAL-logged, or whose base image was truncated away. Does
    not touch the buffer pool. *)

val install_repair : Db.t -> unit
(** Register {!repair_page} as the pool's corruption-repair handler, so a
    checksum failure on read-in triggers WAL-based reconstruction before
    giving up. Engines call this at creation. *)

val make_index : Db.t -> rel:int -> Sias_index.Paged_btree.t
(** A fresh paged B+Tree in relation [rel], wired to this context's
    buffer pool, WAL-first logger and event bus. Logs its own creation. *)

val restore_index : Db.t -> rel:int -> Sias_index.Paged_btree.t
(** Re-open a paged B+Tree from its pages after {!redo} replayed the
    log — never rebuilt from the heap. *)
