(** The SIAS-V version store (the EDBT 2014 demo paper).

    A data item's recent versions are co-located in one heap item, a
    {e version vector} of up to {!capacity} records, newest first; the
    VID_map points at the current vector, so reading any recent version
    costs one fetch. An update re-appends the vector with the new version
    prepended; a full vector spills into an overflow vector, so very old
    versions form a coarse chain of vectors. GC compacts vectors without
    dead versions. Indexing by VID and tombstone deletes are as in
    {!Chain}. *)

include Engine_skeleton.VERSION_STORE

val capacity : int
(** Versions held per vector before spilling (4). *)

val compacted : state Version_store.engine -> int
(** Vectors GC rewrote without dead versions. *)

val fetches_per_read : state Version_store.engine -> float
(** Mean vector fetches per visibility resolution. *)
