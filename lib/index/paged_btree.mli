(** Paged, WAL-logged B+Tree.

    Unlike {!Btree} — whose nodes are one fixed-size image per page,
    decoded into a resident cache and rebuilt from the heap after a
    crash — this tree is a real on-disk structure: fixed 8 KB slotted
    index pages (one slot per entry), internal and leaf nodes carrying a
    high key and a right-sibling link (Lehman–Yao style, so range scans
    stay consistent across concurrent splits and recovery never needs
    parent pointers), prefix-truncated keys in internal nodes, and
    {e every} structural change — insert, split, delete, merge — logged
    write-ahead as an atomic batch of per-page slot deltas and replayed
    byte-exact by recovery. Every access goes through the buffer pool:
    under buffer pressure index descents incur real page misses,
    evictions and device reads, which is the point — index maintenance
    and lookup traffic become first-class flash measurements. A node
    page keeps its entries' slots in (key, payload) order, so every visit
    is a binary search over the pinned page's slot directory with no
    copy, decode or sort; a node is decoded into its entry list only to
    plan a split (when it is already full).

    Layering: this library cannot see the WAL or {!Mvcc.Db}, so the
    logger is injected — [log deltas] must append one atomic record
    (with full-page-write protection for the touched pages) and return
    its LSN {e before} any page is modified; {!Mvcc.Walcodec.make_index}
    builds both the logger and the redo side. *)

type t

(** One logged page mutation. [Ins] carries no slot: it goes to the
    item's key-order position, found by binary search over the page
    bytes, and the page-LSN gate guarantees redo starts from exactly the
    bytes the normal path saw. [Upd]/[Del] carry the slot, known when the
    change was planned; [Del] moves the slots above it down, so a batch
    removing several slots of one page lists them from the top down. *)
type op = Ins of bytes | Upd of int * bytes | Del of int

type delta = {
  d_block : int;
  d_new : bool;  (** block allocated by this same batch: no pre-image to FPW *)
  d_op : op;
}

val create :
  Sias_storage.Bufpool.t ->
  rel:int ->
  log:(delta list -> int) ->
  ?bus:Sias_obs.Bus.t ->
  unit ->
  t
(** An empty tree in relation [rel]: block 0 holds the metadata page
    (root, height, block count), block 1 the first leaf. The creation
    itself is logged through [log]. *)

val restore :
  Sias_storage.Bufpool.t ->
  rel:int ->
  log:(delta list -> int) ->
  ?bus:Sias_obs.Bus.t ->
  unit ->
  t
(** Re-open a tree from its pages after crash recovery has replayed the
    WAL ({!Mvcc.Walcodec.redo}): reads the metadata page and recounts
    entries by walking the leaf chain. Never rebuilds from the heap. *)

val apply_delta : Sias_storage.Page.t -> delta -> unit
(** Apply one delta to a page image (the redo side; also used by page
    repair). Raises [Failure] when the page diverges from what the
    normal path saw — a replay-divergence bug, never silent. *)

val insert : t -> key:int -> payload:int -> unit
(** Duplicate (key, payload) pairs are ignored (and log nothing). *)

val delete : t -> key:int -> payload:int -> bool
(** Remove one exact entry; [false] when absent. An emptied leaf with a
    left sibling under the same parent is unlinked (merged) in the same
    atomic batch. *)

val lookup : t -> key:int -> int list
(** All payloads stored under [key], ascending. *)

val range : t -> lo:int -> hi:int -> (int * int) list
(** All entries with [lo <= key <= hi] in order, walking right-sibling
    links across leaves. *)

val mem : t -> key:int -> payload:int -> bool
val entry_count : t -> int
val height : t -> int
val node_count : t -> int

type stats = { inserts : int; deletes : int; splits : int; merges : int; lookups : int }

val stats : t -> stats

val iter : t -> (int -> int -> unit) -> unit
(** All entries in (key, payload) order via the leftmost-leaf chain. *)
