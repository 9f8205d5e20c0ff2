(** The common index interface the engines build against.

    Every engine maintains its primary-key and secondary indexes through
    this one seam, so the two implementations are interchangeable per
    database context ({!Db.t}'s [index_kind]):

    - [`Array] — {!Sias_index.Btree}: node-image pages, a decoded-node
      cache, no WAL logging; recovery discards the tree and rebuilds it
      from the heap. The historical behavior, byte-identical to every
      golden output, and the determinism oracle for the paged path.
    - [`Paged] — {!Sias_index.Paged_btree}: slotted pages kept in key
      order and binary-searched in place on every access (decoded only
      to plan splits), every structural change WAL-logged; recovery
      replays the pages in place and never touches the heap.

    The packing is a first-class module plus its value, so engine code
    is written once against {!module-type-S}. *)

module type S = sig
  type i

  val insert : i -> key:int -> payload:int -> unit
  val delete : i -> key:int -> payload:int -> bool
  val lookup : i -> key:int -> int list
  val range : i -> lo:int -> hi:int -> (int * int) list
  val entry_count : i -> int
  val height : i -> int
  val node_count : i -> int
  val inserts : i -> int
  val splits : i -> int
  val merges : i -> int

  val needs_rebuild : bool
  (** [true] when recovery yields an empty tree the engine must refill
      from the heap; [false] when {!recover} restored the entries. *)
end

type t = Packed : (module S with type i = 'a) * 'a * int -> t
(** Implementation, value, and the relation id its pages live in. *)

val kind_of_string : string -> ([ `Array | `Paged ], string) result
(** ["array"] or ["paged"], the spelling every command line and setup
    uses; anything else is an error naming both. *)

val create : Db.t -> t
(** A fresh index on a freshly allocated relation, implementation chosen
    by the context's [index_kind]. Rel-allocation order is identical to
    the historical direct [Btree.create] call sites, so [`Array]
    contexts stay byte-identical. *)

val recover : Db.t -> t -> t
(** Post-crash replacement for an index handle, after
    {!Walcodec.redo}. [`Array]: a fresh empty tree on a {e newly
    allocated} relation (exactly the historical behavior — the caller
    must rebuild from the heap, see {!needs_rebuild}). [`Paged]:
    re-opened from its own replayed pages on the {e same} relation. *)

val needs_rebuild : t -> bool

val insert : t -> key:int -> payload:int -> unit
val delete : t -> key:int -> payload:int -> bool
val lookup : t -> key:int -> int list
val range : t -> lo:int -> hi:int -> (int * int) list

type summary = {
  s_rel : int;
  s_entries : int;
  s_height : int;
  s_nodes : int;
  s_inserts : int;  (** cumulative entry insertions (deleted ones included) *)
  s_splits : int;
  s_merges : int;  (** always 0 for [`Array] (lazy deletion, no merging) *)
}

val summary : t -> summary
(** One stats snapshot, the unit of {!Engine.S.index_summary}. *)
