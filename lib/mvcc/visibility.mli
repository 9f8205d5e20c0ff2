(** Version visibility (paper Algorithm 1, [isVisible]).

    A version created by [c] is visible to snapshot [s] iff [c] is [s]'s
    own transaction, or [c] committed before [s] started ([c <= xmax] and
    [c] not concurrent and [c] committed). Under SI a visible creator is
    not enough: the version must also not be invalidated by a transaction
    visible to [s]. Under SIAS there is no invalidation timestamp — the
    first visible version found walking the chain from the entrypoint is
    the answer, because chain order is reverse-chronological. *)

val si_visible :
  Sias_txn.Txn.mgr -> Sias_txn.Snapshot.t -> Tuple.Si.header -> bool
(** Creator visible and not invalidated by a visible transaction. *)

val si_dead_for_all : Sias_txn.Txn.mgr -> horizon:int -> Tuple.Si.header -> bool
(** No current or future snapshot can see the version — the vacuum
    criterion: aborted creator, or invalidator committed below the
    {!Sias_txn.Txn.horizon}. *)

val sias_dead_for_all :
  Sias_txn.Txn.mgr ->
  horizon:int ->
  create:int ->
  successor_create:int option ->
  bool
(** SIAS chain-pruning criterion for a version created at [create] whose
    nearest {e committed} successor in the chain (if any) was created at
    [successor_create]: the version is dead when its creator aborted, or
    when that successor is visible to every active transaction. *)

(** {2 Hint-bit fast path}

    Same predicates, but the transaction's fate is read from the tuple's
    hint bits when present; on a miss the CLOG is consulted and the
    answer cached back onto the tuple (committed hints only once the
    commit record is durable). The plain predicates above are the
    retained slow-path oracle — the fast path must always agree with
    them, which the QCheck equivalence suite enforces. *)

val creator_visible_fast :
  Db.t ->
  heap:Sias_storage.Heapfile.t ->
  tid:Sias_storage.Tid.t ->
  off:int ->
  shift:int ->
  Sias_txn.Snapshot.t ->
  hint:int ->
  xid:int ->
  bool
(** [off] is the item byte holding the hint bits for the timestamp being
    checked, [shift] the bit position of the 2-bit hint value in it. *)

val si_visible_fast :
  Db.t ->
  heap:Sias_storage.Heapfile.t ->
  tid:Sias_storage.Tid.t ->
  Sias_txn.Snapshot.t ->
  Tuple.Si.header ->
  bool

val sias_creator_visible_fast :
  Db.t ->
  heap:Sias_storage.Heapfile.t ->
  tid:Sias_storage.Tid.t ->
  Sias_txn.Snapshot.t ->
  hint:int ->
  xid:int ->
  bool
