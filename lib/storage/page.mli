(** Slotted heap page (PostgreSQL-style).

    A page is a real byte buffer: a fixed header, a slot (line pointer)
    array growing downward from the header, and item data growing upward
    from the end. Deleting leaves a hole that is reclaimed by compaction
    when an insert needs the space. In-place updates that do not grow an
    item succeed without moving it — which is exactly the operation SI
    invalidation performs and SIAS avoids. *)

type t

val header_size : int
val slot_size : int

val create : size:int -> t
(** An empty page of [size] bytes (the simulator uses 8192). *)

val reset : t -> unit
(** Turn the page, in place, into the empty page {!create} would make:
    every byte of the old content is zeroed. *)

val size : t -> int

val insert : t -> bytes -> int option
(** [insert p item] places the item and returns its slot, or [None] when
    even compaction cannot make room. Dead slots are reused. *)

val read : t -> int -> bytes option
(** Item bytes of a live slot; [None] for dead, unused or out-of-range
    slots. The returned bytes are a copy. *)

val item_offset : t -> int -> int
(** Byte offset of a live slot's item within {!buffer}; [-1] for dead,
    unused or out-of-range slots. *)

val buffer : t -> bytes
(** The page's own byte buffer, not a copy: a read-only view for
    in-place item decoding. Callers must not mutate it (the buffer pool
    alone does, while it loads an image into a page no caller holds), and
    must not use it past the pin that produced the page. *)

val update : t -> int -> bytes -> bool
(** [update p slot item] overwrites the item in place when the new value
    is not longer than the currently stored one (the slot keeps its
    original allocation); returns [false] otherwise, leaving the page
    unchanged. *)

val delete : t -> int -> unit
(** Mark the slot dead; its space becomes reclaimable. No-op on already
    dead slots; raises [Invalid_argument] on out-of-range slots. *)

val slot_count : t -> int
(** Slots ever allocated, live or dead. *)

val live_count : t -> int

val free_space : t -> int
(** Bytes available for new items, counting reclaimable holes but also
    the slot-array cost of an insert. *)

val fill_ratio : t -> float
(** Fraction of the data area occupied by live items. *)

val iter : t -> (int -> bytes -> unit) -> unit
(** Apply to every live slot in slot order. *)

val or_byte : t -> int -> off:int -> bits:int -> unit
(** [or_byte p slot ~off ~bits] ORs [bits] into the byte at [off] within
    the live item at [slot]; silently a no-op when the slot is dead or
    [off] out of range. Used for tuple hint bits: never changes item
    length or layout. *)

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst]'s content with [src]'s (same size required) without
    allocating. *)

val no_slot_reuse : t -> bool

val set_no_slot_reuse : t -> unit
(** Mark the page append-only with respect to slot ids: dead slots are
    never recycled, so a TID is unique for the page's lifetime. Persisted
    in the page header (recovery redo sees the same behaviour). Used by
    {!Heapfile} for [Append_only] placement, where stale version-chain
    pointers must never alias a newer tuple. *)

val lsn : t -> int
val set_lsn : t -> int -> unit
(** Page LSN for WAL ordering. *)

val to_bytes : t -> bytes
(** A copy of the raw page image (WAL full-page writes). *)

val of_bytes : bytes -> t
(** Wrap a raw image, taking ownership of the buffer. *)

val overwrite : t -> bytes -> unit
(** Replace the page content with a raw image of the same size (full-page
    redo). *)

val stamp_checksum : t -> unit
(** Compute and store the page CRC32 (over the whole image with the
    checksum field zeroed). Called when an image goes to stable storage;
    in-memory pages carry stale checksums. *)

val checksum_ok : t -> bool
(** Verify the stored CRC32 against the current content. A torn or
    bit-rotten image fails unless the damage is outside every checked
    byte — impossible, since all bytes are covered. *)
