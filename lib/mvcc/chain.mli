(** The SIAS-Chains version store (paper Section 4).

    Every version is its own heap item carrying the data item's VID and a
    backward pointer to its predecessor; the VID_map points at the
    newest one (the entrypoint). Creating a successor {e implicitly}
    invalidates — the old version is never touched again — and all
    placement is append-only. Indexes map keys to VIDs and are touched
    once per data item, plus on secondary-key changes. Deletes append
    tombstones. GC prunes dead chain tails. *)

include Engine_skeleton.VERSION_STORE

val walk_stats : state Version_store.engine -> int * int
(** (visibility walks, versions visited). *)

val scan_traditional :
  state Version_store.engine ->
  Sias_txn.Txn.t ->
  Version_store.table ->
  (Value.t array -> unit) ->
  int
(** Fetch {e all} tuple versions in heap order and check each
    individually. *)
