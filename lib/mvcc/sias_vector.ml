include Engine_skeleton.Make (Vector)

let vector_capacity = Vector.capacity

type gc_stats = {
  collected_vectors : int;
  compacted_vectors : int;
  reclaimed_pages : int;
}

let gc_stats (t : t) =
  {
    collected_vectors = t.swept;
    compacted_vectors = Vector.compacted t;
    reclaimed_pages = t.reclaimed;
  }

let fetches_per_read = Vector.fetches_per_read
