(** One engine skeleton over a version store.

    {!Make} owns everything the engines share: the table catalog, the
    transaction lifecycle with its undo log, the read paths with their
    CPU charges, isolation hooks and checker events, the write flow
    (unique-key admission, writer lock, placement, index maintenance),
    the sealed-page sweep with relocation and TRIM, and the recovery
    prologue. A {!VERSION_STORE} decides only what differs: the tuple
    format, the visibility walk, where a write puts the new version and
    how it retires the old one, what an index payload means, the GC mark
    phase, pointer repair on relocation and the choice of entrypoint at
    recovery. The stores are {!In_place} (SI, SI-CV), {!Chain}
    (SIAS-Chains) and {!Vector} (SIAS-V); the skeleton never branches on
    which one it serves. *)

module type VERSION_STORE = Version_store.S

module Make (V : VERSION_STORE) : sig
  include
    Engine.S with type t = V.state Version_store.engine and type table = Version_store.table

  val table_vidmap : t -> table -> Vidmap.t

  val check_invariants : t -> table -> unit
  (** White-box structural invariants for the property tests: along
      every item's chain of heap items each carries the item's VID and
      the versions' (create, seq) strictly decrease; no entrypoint
      dangles; the newest committed live version is reachable through
      the pk index. Raises [Failure] with a description. *)
end
