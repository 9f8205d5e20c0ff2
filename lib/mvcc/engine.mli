(** Common engine interface.

    Both the SI baseline and the SIAS engines implement {!S}, so workload
    drivers (TPC-C, the examples, the benches) are functors that run
    unchanged over either engine. Tables have an integer primary key
    column and optional secondary indexes on other columns (composite keys
    are encoded into a single int by the caller, as the TPC-C schema
    does). *)

type error =
  | Duplicate_key
  | Not_found
  | Write_conflict
      (** first-updater-wins: the row version was created or invalidated
          by a transaction this one cannot update over *)
  | Serialization_failure
      (** the isolation level's commit rule (SSI pivot abort or WSI
          read-write certification) rejected the transaction; it has
          already been aborted — retry it from the top, do not abort *)

val error_to_string : error -> string

type table_stats = {
  heap_blocks : int;
  live_versions : int;
  total_versions : int;
  avg_fill : float;
}

module type S = sig
  type t
  type table

  val name : string

  val create : Db.t -> t
  val db : t -> Db.t

  val create_table :
    t -> name:string -> pk_col:int -> ?secondary:int list -> unit -> table

  val begin_txn : t -> Sias_txn.Txn.t

  val commit : t -> Sias_txn.Txn.t -> (unit, error) result
  (** [Ok ()] once the commit record is routed through the pipeline and
      the transaction is marked committed. [Error Serialization_failure]
      when the context's isolation level rejected it — the transaction
      was aborted internally; do {e not} call {!abort} on it. Other
      failure modes keep their exceptions ({!Db.Read_only}). *)

  val abort : t -> Sias_txn.Txn.t -> unit

  val insert :
    t -> Sias_txn.Txn.t -> table -> Value.t array -> (unit, error) result

  val read : t -> Sias_txn.Txn.t -> table -> pk:int -> Value.t array option

  val update :
    t ->
    Sias_txn.Txn.t ->
    table ->
    pk:int ->
    (Value.t array -> Value.t array) ->
    (unit, error) result

  val delete : t -> Sias_txn.Txn.t -> table -> pk:int -> (unit, error) result

  val lookup :
    t -> Sias_txn.Txn.t -> table -> col:int -> key:int -> Value.t array list
  (** Rows whose secondary-indexed column equals [key]. *)

  val range_pk :
    t -> Sias_txn.Txn.t -> table -> lo:int -> hi:int -> Value.t array list

  val scan : t -> Sias_txn.Txn.t -> table -> (Value.t array -> unit) -> int
  (** Visible-row scan; returns the row count. *)

  val gc : t -> unit
  (** Space reclamation (SI: vacuum; SIAS: chain pruning + page GC). *)

  val recover : t -> unit
  (** Crash recovery: rebuild state from flushed pages plus WAL redo, then
      reconstruct indexes (and for SIAS the VID_map) from the heap. Call
      after {!Sias_storage.Bufpool.drop_cache} on the context's pool. *)

  val table_stats : t -> table -> table_stats

  val index_summary : t -> (string * Index.summary list) list
  (** Per table (by name), one stats snapshot per index — primary key
      first, then secondaries in declaration order. Drives the bench's
      index-write-amplification accounting (index relations, logical
      entry volume, split/merge counts). *)
end

(** {1 Engine registry}

    Engines self-register as first-class modules under a stable string
    key ("si", "si-cv", "sias", "sias-v"), so every selection point —
    CLI parsing, the benchmark driver, the harness — resolves engines
    through one table instead of duplicating match arms. The mvcc
    library links with [-linkall], so registration runs whether or not
    an engine module is otherwise referenced. *)

val register :
  key:string -> ?aliases:string list -> ?display:string -> (module S) -> unit
(** Raises [Invalid_argument] on a duplicate key. [display] is the
    human-readable name used in reports (defaults to [key]). *)

val find : string -> (module S) option
(** Look up by key or alias. *)

val resolve : string -> (string * (module S)) option
(** Like {!find} but also returns the canonical key (argument parsers
    normalize aliases with this). *)

val all : unit -> (string * (module S)) list
(** Every registered engine, in registration order. A function, not a
    value: module initialization order means the registry fills after
    this module loads. *)

val keys : unit -> string list
(** Canonical keys, sorted. *)

val known_keys_hint : unit -> string
(** Human-readable enumeration of canonical keys with their aliases
    (["si, sias-v (aka sias, vector), ..."]) — every unknown-engine
    error message quotes this one string. *)

val resolve_exn : string -> string * (module S)
(** Like {!resolve} but raises [Invalid_argument] with a message listing
    the registered keys (and aliases) on an unknown string — callers
    without a [result] channel get a self-explanatory failure instead of
    a bare [Option.get]. *)

val display_name : string -> string
(** Display name for a key or alias; echoes unknown strings back. *)
