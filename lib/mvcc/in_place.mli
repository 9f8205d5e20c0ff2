(** The classical update-in-place version store (PostgreSQL-style SI).

    Every version carries creation and invalidation timestamps
    ([xmin]/[xmax]). An update invalidates the old version {e in place}
    (a small write on whatever page it lives on), then places the new
    version by the profile's placement and indexes it in {e every} index;
    index payloads are TIDs. GC is vacuum: dead versions are deleted where
    they lie. SI and SI-CV are this store under two placements. *)

module type PROFILE = sig
  val name : string
  val placement : Sias_storage.Heapfile.placement
end

module Make (_ : PROFILE) : Engine_skeleton.VERSION_STORE
