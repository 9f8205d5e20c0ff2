(** The traditional Snapshot Isolation engine — the PostgreSQL-style
    baseline the paper compares against.

    Every tuple version carries creation and invalidation timestamps
    ([xmin]/[xmax]). An update {e invalidates the old version in place}
    (a small write that dirties whatever page the old version lives on),
    then places the new version on any page with free space, and inserts
    index entries for the new version in {e every} index. This is the
    behaviour that produces the scattered write pattern of the paper's
    Figure 4 and the write volumes of Table 1's SI column. *)

include Engine.S
