include Engine_skeleton.Make (Chain)

let scan_traditional = Chain.scan_traditional

type gc_stats = {
  pruned_versions : int;
  relocated_versions : int;
  reclaimed_pages : int;
}

let gc_stats (t : t) =
  {
    pruned_versions = t.swept;
    relocated_versions = t.relocated;
    reclaimed_pages = t.reclaimed;
  }

let chain_walk_stats = Chain.walk_stats
