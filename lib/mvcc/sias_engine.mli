(** SIAS-Chains: Snapshot Isolation Append Storage with chained version
    organization — the paper's primary contribution (Section 4).

    Data items are addressed as a whole through a unique VID; the VID_map
    points at the newest version (the {e entrypoint}), every version
    stores a backward pointer to its predecessor, and creating a successor
    {e implicitly} invalidates — the old version is never touched again.
    All heap placement is append-only, so each relation's write I/O is a
    stream of monotonically increasing page appends (Figure 3), deferred
    by the buffer-flush threshold (t1/t2, Section 5.2). Indexes map keys
    to VIDs, so updates that do not change the key never touch an index
    (Section 4.3). Deletes append tombstone versions (Section 4.2.2). *)

include Engine.S

val scan_traditional : t -> Sias_txn.Txn.t -> table -> (Value.t array -> unit) -> int
(** The HDD-era scan for comparison: fetch {e all} tuple versions in heap
    order and check each individually (reproduces the paper's Section
    4.2.1 discussion and the scan ablation bench). *)

type gc_stats = {
  pruned_versions : int;  (** dead versions removed by chain truncation *)
  relocated_versions : int;  (** live versions re-appended from victim pages *)
  reclaimed_pages : int;
}

val gc_stats : t -> gc_stats

val chain_walk_stats : t -> int * int
(** (visibility walks, versions visited) — average chain depth probe. *)

val table_vidmap : t -> table -> Vidmap.t
(** Expose the VID_map for white-box tests and benches. *)

val check_invariants : t -> table -> unit
(** White-box structural invariants (chain order, VID integrity,
    entrypoint present, index reachability); raises [Failure] with a
    description on violation. Used by the property-test suite. *)
