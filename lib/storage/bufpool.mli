(** Buffer pool over a simulated block device.

    Frames hold {!Page.t} values keyed by (relation, block). Misses read
    the page image from the simulated disk (charging device latency and
    advancing the caller's clock); evicting a dirty frame writes it back
    synchronously, like a PostgreSQL backend stalling on a dirty victim.
    The background writer and checkpointer flush asynchronously: the
    device queue is charged but the caller's clock does not advance.

    Each relation owns a disjoint sector region on the device, so the
    block trace shows per-relation "swimlanes" (paper, Section 5.1).

    The pool can be partitioned into [shards]: each shard owns a slice
    of the frame array with its own mapping table, clock hands and lock,
    and pages hash to shards by key, so domains touching disjoint pages
    rarely contend (PostgreSQL's buffer-mapping partitions). Below the
    mapping layer a single I/O lock serializes the simulated device and
    clock. With the default [shards = 1] no lock is ever taken and
    behavior is byte-identical to the unsharded pool. The pool
    guarantees frame-table integrity across domains; synchronizing
    {e page content} between domains remains the caller's concern —
    shard your data.

    {b Frame discipline.} A miss loads the page image into the buffer
    of the frame (or ring entry) that receives it, so buffers are
    reused: a {!Page.t} handed to a {!with_page} or {!with_page_ro}
    callback is valid only during that callback. Keep copies
    ({!Page.read}, {!Page.copy}), never the page. *)

type t

type key = { rel : int; block : int }

exception Corrupt_page of { rel : int; block : int }
(** A page image failed checksum verification (or was unreadable after
    bounded retries) and no repair handler could rebuild it. Raised
    instead of ever returning garbage bytes to the caller. *)

exception No_free_frames of { capacity : int }
(** The clock sweep found every frame pinned: the set of concurrently
    pinned pages exceeds the pool. Raised instead of spinning forever;
    the pool is unchanged. *)

val create :
  device:Flashsim.Device.t ->
  clock:Sias_util.Simclock.t ->
  capacity_pages:int ->
  ?page_size:int ->
  ?rel_region_blocks:int ->
  ?os_cache_interval:float ->
  ?os_cache_pages:int ->
  ?bus:Sias_obs.Bus.t ->
  ?faults:Flashsim.Faultdev.t ->
  ?max_read_retries:int ->
  ?shards:int ->
  unit ->
  t
(** [capacity_pages] frames of [page_size] (default 8192) bytes.
    [rel_region_blocks] (default 65536) sizes each relation's device
    region. [faults] injects device faults on this pool's reads and
    writes; transient read errors are retried up to [max_read_retries]
    (default 4) times with exponential backoff charged to the clock.
    [shards] (default 1) partitions the frames for multi-domain access;
    must not exceed [capacity_pages]. *)

val shard_count : t -> int

val page_size : t -> int
val device : t -> Flashsim.Device.t

val now : t -> float
(** Current simulated time of the pool's clock. *)

val with_page : t -> rel:int -> block:int -> (Page.t -> 'a) -> 'a
(** Pin the page, run the function, unpin. The page is fetched from disk
    on a miss and created empty if it never existed. Mutating the page
    requires a {!mark_dirty} before unpinning. *)

val with_page_ro : t -> rel:int -> block:int -> (Page.t -> 'a) -> 'a
(** Ring-buffer access for background scans (vacuum/GC): hits do not
    promote the frame and misses are served without caching, so a
    wholesale scan cannot evict the working set (PostgreSQL's vacuum
    ring). Strictly read-only — mutations made through it are lost. A
    ring buffer is never reloaded while a callback still reads it, so
    nested calls are safe. *)

val patch_resident :
  t -> rel:int -> block:int -> slot:int -> off:int -> bits:int -> bool
(** Hint-bit patch: OR [bits] into the byte at [off] of the live item at
    [slot], but only when the page is resident in a frame — returns
    [false] (doing nothing) otherwise. Bypasses hit/miss statistics, the
    reference bit and recency, and does {e not} dirty the frame: hint
    bits are advisory and ride along on the page's next real write. *)

val mark_dirty : t -> rel:int -> block:int -> unit
(** The page must currently be resident (normally called inside
    [with_page]). *)

val flush_block : t -> rel:int -> block:int -> sync:bool -> unit
(** Write the page image to the device if resident and dirty. [sync]
    advances the caller's clock to I/O completion. *)

val flush_all : t -> sync:bool -> unit
(** Checkpoint: write every dirty frame. *)

val flush_some : t -> max_pages:int -> unit
(** Background-writer step: asynchronously write up to [max_pages] dirty
    frames, least-recently-used first. *)

val dirty_count : t -> int
val resident : t -> rel:int -> block:int -> bool
val is_dirty : t -> rel:int -> block:int -> bool

val drop_cache : t -> unit
(** Simulate a clean crash: discard every frame (dirty pages are LOST)
    leaving only what was flushed to the device. For recovery tests. *)

val crash : t -> unit
(** Simulate a dirty crash: writes that were in flight when the machine
    died persist only a torn prefix (per the fault plan), then the cache
    is dropped. Equivalent to {!drop_cache} when no write was torn. *)

val set_repair : t -> (rel:int -> block:int -> Page.t option) -> unit
(** Install the corruption repair handler, called when a read-in image
    fails checksum verification. It must rebuild the page from redundant
    state (WAL full-page images + redo records) {e without} going through
    this pool, and return [None] when reconstruction is impossible — the
    read then raises {!Corrupt_page}. A repaired page is re-stamped and
    written back to the disk image table. *)

val sector_of : t -> rel:int -> block:int -> int

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  flushes : int;
  read_stall_s : float;  (** simulated seconds callers spent waiting on reads *)
  write_stall_s : float;  (** simulated seconds spent on synchronous writes *)
  read_retries : int;  (** transient read errors retried (backoff charged) *)
  checksum_failures : int;  (** images that failed verification on read-in *)
  pages_repaired : int;  (** checksum failures rebuilt from the WAL *)
  torn_pages : int;  (** torn write images applied at crash *)
}

val stats : t -> stats

val on_disk : t -> rel:int -> block:int -> bool
(** Whether a flushed image of the page exists on the device (used by
    recovery to rediscover relation sizes). *)

val dirty_keys : t -> (int * int) list
(** (rel, block) of every dirty resident frame; for tests/debugging. *)

val flush_os_cache : t -> unit
(** Force the OS page-cache model's pending writes out to the device (the
    equivalent of sync(2)). No-op without [os_cache_interval]. With the
    cache enabled, page write-backs cost no caller time and coalesce per
    page until the periodic dirty-expire flush — the Linux behaviour
    underneath PostgreSQL that the paper's write measurements sit on. *)

val trim_block : t -> rel:int -> block:int -> unit
(** Discard a page: the resident frame (if any) is reset to an empty page
    and marked clean, and the on-device image is dropped. Models the
    deterministic erase/TRIM a log-structured store issues for reclaimed
    pages — a metadata operation, not a page write (paper Section 6). *)

val trims : t -> int
(** Number of pages discarded so far. *)
