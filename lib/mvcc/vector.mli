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

(** {2 The encoded vector}

    The walker the store reads vectors with, exposed for the equivalence
    tests. A vector is named by a buffer and its offset there (0 for a
    copy; GC reads vectors where they lie in the page), a record by its
    byte offset in that buffer. *)

val count : bytes -> int -> int

val fold : bytes -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** [fold b o f acc]: fold over the record offsets of the vector at [o],
    newest first. *)

val create : bytes -> int -> int
val seq : bytes -> int -> int
val tombstone : bytes -> int -> bool
val hint : bytes -> int -> int

val flags_off : int -> int
(** Offset of a record's flags byte, where the creator hint is patched. *)

val row_at : bytes -> int -> Value.t array
(** Decode the row of the record at an offset. *)

val record : create:int -> seq:int -> tombstone:bool -> bytes -> bytes
(** One encoded record of the encoded row, with no hint. *)

val splice : bytes -> bytes -> bytes
(** [splice cur r]: the vector [cur] with the record [r] prepended; the
    old records are copied verbatim. *)

val prefix : vid:int -> (bytes * int) list -> int -> bytes
(** [prefix ~vid chain n]: a vector with no overflow holding the first
    [n] records along [chain] (vectors as (buffer, offset), newest
    first), copied verbatim. *)
