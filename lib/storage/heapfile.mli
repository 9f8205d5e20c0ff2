(** Heap file: the block collection of one relation.

    The placement policy is the heart of the SI-vs-SIAS storage contrast:

    - [Free_space_first] mirrors PostgreSQL's FSM — a new tuple goes to any
      page with enough free space, scattering writes across the whole
      relation (paper, Figure 4).
    - [Append_only] is the SIAS log-based storage manager — new tuple
      versions are only ever placed on the current tail page, so the dirty
      set is the append region and flushed pages form monotonically
      increasing appends (paper, Figure 3). *)

type placement =
  | Free_space_first  (** PostgreSQL FSM: any page with room (SI) *)
  | Append_only  (** log-structured: current tail only (SIAS) *)
  | Txn_colocated
      (** SI-CV (the paper's [18]): versions of the same transaction are
          co-located on per-writer open pages *)

type t

exception Item_too_large of { bytes : int; rel : int }
(** Raised by the insert family when an item cannot fit on any page, even
    a fresh one. A caller-input condition (an oversized row), not a
    programmer error. *)

val create : ?seal_interval:float -> Bufpool.t -> rel:int -> placement:placement -> t
(** [seal_interval] implements the paper's t1 flush threshold for
    [Append_only] files: the current tail page is physically appended to
    stable storage (and thereby sealed) once it has been open for that
    many simulated seconds, regardless of how full it is. Without it (t2)
    tails are persisted by checkpoints. *)

val rel : t -> int
val placement : t -> placement

val nblocks : t -> int
(** Blocks allocated so far. *)

val insert : t -> bytes -> Tid.t
(** Place an item per the policy, dirtying exactly one page. Grows the
    file when needed. *)

val insert_owned : t -> owner:int -> bytes -> Tid.t
(** Like {!insert}; under [Txn_colocated], [owner] (the writing
    transaction) selects the open page to co-locate on. *)

val read : t -> Tid.t -> bytes option
(** [None] when the slot is dead or out of range. *)

val patch_hint : t -> Tid.t -> off:int -> bits:int -> unit
(** OR hint bits into one byte of the item at [tid], but only when its
    page is already resident in the buffer pool — never an I/O, never a
    statistic, never dirties the page (the hint rides along on the next
    real write). Silently skipped otherwise: hints are advice, not
    state. *)

val update_in_place : t -> Tid.t -> bytes -> bool
(** Overwrite without moving (see {!Page.update}); dirties the page on
    success. This is the operation SI invalidation needs and SIAS never
    performs on stable tuples. *)

val delete : t -> Tid.t -> unit
(** Mark the slot dead and dirty the page (used by garbage collection). *)

val iter : t -> (Tid.t -> bytes -> unit) -> unit
(** Full scan in block order — the traditional relation scan. Charges
    buffer misses for every block touched. *)

val read_ro : t -> Tid.t -> bytes option
(** Ring-buffer variant of {!read} for background work (vacuum/GC): I/O
    is charged but the buffer pool's working set is not disturbed. *)

val with_item_ro : t -> Tid.t -> (bytes -> int -> int -> 'a) -> 'a option
(** [with_item_ro t tid f] runs [f buf off len] on the live item at [tid]
    where it lies: [buf] is the page buffer, the item occupies [len] bytes
    from [off]. One ring-buffer access, the same as {!read_ro}, but
    nothing is copied. [None] where {!read_ro} gives [None] (a dead slot,
    a discarded block, a block out of range), and then [f] is not called.
    [f] must not mutate [buf] or keep it after it returns: the buffer is
    the pool's, and valid only during the call. *)

val page_fill : t -> block:int -> float
val avg_fill : t -> float
(** Mean live-data fill ratio across blocks; space-consumption metric. *)

val last_block : t -> int option
(** The current append target, when the file is non-empty. *)

val restore : Bufpool.t -> rel:int -> placement:placement -> nblocks:int -> t
(** Recovery: rebuild the heap-file descriptor for an existing relation of
    [nblocks] blocks, recomputing the free-space map from page contents. *)

val sealed : t -> int -> bool
(** [sealed t block]: an [Append_only] page already persisted to stable
    storage; it accepts no further inserts. *)

val discard_block : t -> int -> unit
(** GC page reclamation: drop the whole page via
    {!Bufpool.trim_block} — no page write, the log-structured store's
    deterministic erase. The block stays allocated (append files never
    reuse old blocks) but holds no data and is excluded from fill and
    space accounting. Raises on the current append tail. *)

val discarded : t -> int -> bool

val live_blocks : t -> int
(** [nblocks] minus discarded blocks: the space-consumption metric. *)
