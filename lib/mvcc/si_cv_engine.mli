(** SI-CV: Snapshot Isolation with transaction-co-located versions — the
    authors' earlier placement strategy (paper reference [18], TPC-TC'12),
    included as a third baseline. Identical SI semantics and in-place
    invalidation; only version {e placement} differs: the versions a
    transaction writes are packed onto per-transaction open pages instead
    of being scattered by the free-space map, cutting the number of
    distinct pages a transaction dirties (but, unlike SIAS, the old
    versions' pages are still updated in place). *)

include Engine.S
