(** Disk-backed B+ tree.

    Entries are (key, payload) integer pairs ordered lexicographically, so
    duplicate keys are supported naturally. Nodes are fixed-size images,
    one per buffer-pool page of the index relation; node modifications
    dirty their page, so index write traffic shows up on the simulated
    device exactly like heap traffic.

    This is the structure behind the paper's Section 4.3: the SI baseline
    indexes ⟨key, TID⟩ and must insert a new entry for {e every} new tuple
    version, while SIAS indexes ⟨key, VID⟩ and only touches the tree when
    the key value actually changes. Deletion is lazy (entries are removed,
    pages are never merged), as in PostgreSQL. *)

type t

val create : Sias_storage.Bufpool.t -> rel:int -> t
(** An empty tree storing its nodes in pages of relation [rel]. *)

val insert : t -> key:int -> payload:int -> unit
(** Duplicate (key, payload) pairs are ignored. *)

val delete : t -> key:int -> payload:int -> bool
(** Remove one exact entry; [false] when absent. *)

val lookup : t -> key:int -> int list
(** All payloads stored under [key], ascending. *)

val range : t -> lo:int -> hi:int -> (int * int) list
(** All entries with [lo <= key <= hi] in order. *)

val mem : t -> key:int -> payload:int -> bool

val entry_count : t -> int
val height : t -> int
val node_count : t -> int

type stats = { inserts : int; deletes : int; splits : int; lookups : int }

val stats : t -> stats

val iter : t -> (int -> int -> unit) -> unit
(** All entries in key order. *)

val reference_image : t -> block:int -> bytes
(** The image of [block]'s node as the allocate-and-fill encoder builds
    it: the reference the in-frame node writes must match byte for
    byte. Tests only. *)
