(** On-tuple version headers (paper Section 4.1.1).

    Both engines store a fixed-size binary header in front of the row
    payload. Fixed size matters: the header fields that are ever modified
    in place (SI's invalidation timestamp, SIAS's predecessor pointer at
    GC time) patch bytes without changing the item length, so
    {!Sias_storage.Page.update} always succeeds.

    SI header — creation ([xmin]) and invalidation ([xmax]) transaction
    timestamps, as in classical Snapshot Isolation: invalidating a version
    is an in-place write of [xmax].

    SIAS header — creation timestamp, the data item's VID, the physical
    TID of the predecessor version, and a tombstone flag for deletes.
    There is explicitly {e no} invalidation field: creating a successor
    implicitly invalidates, and the successor's existence encodes it.

    Hint bits: the top two bits of each timestamp field cache the
    creating/invalidating transaction's final fate (PostgreSQL-style), so
    steady-state visibility checks skip the CLOG. They live in otherwise
    unused bits, keeping header sizes — and page fill — unchanged.
    Decoders mask them off; [header] exposes them as 2-bit hint values. *)

module Hint : sig
  val none : int
  val committed : int
  val aborted : int
end

module Si : sig
  type header = { xmin : int; xmax : int; xmin_hint : int; xmax_hint : int }

  val header_size : int

  val xmin_hint_byte : int
  (** Item offset of the byte holding xmin's hint bits. *)

  val xmax_hint_byte : int
  (** Item offset of the byte holding xmax's hint bits. *)

  val encode : xmin:int -> row:Value.t array -> bytes
  (** A fresh version: [xmax = 0] (not invalidated), no hints. *)

  val header : bytes -> header
  val row : bytes -> Value.t array

  val header_at : bytes -> int -> header
  val row_at : bytes -> int -> Value.t array
  (** [header]/[row] of the item at an offset of a buffer: GC reads items
      where they lie in the page. *)

  val patch_xmax : bytes -> int -> unit
  (** In-place invalidation: the small write SI performs on the old
      version. Mutates the given item image; clears any xmax hint. *)

  val clear_xmax : bytes -> unit
  (** Undo an invalidation (aborting updater cleanup). *)
end

module Sias : sig
  type header = {
    create : int;  (** creating transaction's id *)
    seq : int;  (** command sequence within the creating transaction *)
    vid : int;
    pred : Sias_storage.Tid.t;  (** [Tid.invalid] when no predecessor *)
    tombstone : bool;
    create_hint : int;  (** 2-bit hint for [create]'s fate *)
  }

  val header_size : int

  val create_hint_byte : int
  (** Item offset of the byte holding [create]'s hint bits. *)

  val encode :
    create:int ->
    seq:int ->
    vid:int ->
    pred:Sias_storage.Tid.t ->
    tombstone:bool ->
    row:Value.t array ->
    bytes

  val header : bytes -> header
  val row : bytes -> Value.t array

  val header_at : bytes -> int -> header
  val row_at : bytes -> int -> Value.t array
  (** [header]/[row] of the item at an offset of a buffer. *)

  val patch_pred : bytes -> Sias_storage.Tid.t -> unit
  (** Garbage collection relocates a predecessor and must repoint its
      successor's chain pointer; chain truncation points it at
      [Tid.invalid]. *)
end
