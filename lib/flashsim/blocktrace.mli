(** Block-level I/O tracing, the simulator's equivalent of Linux
    blktrace/blkparse.

    Every device records the I/O requests it services here. The benchmark
    harness derives Table 1 (total MB written) from the aggregate counters
    and renders Figures 3 and 4 from the retained per-request records. *)

type op = Read | Write

type record = {
  time : float;  (** submission time, simulated seconds *)
  op : op;
  sector : int;  (** 512-byte sector address *)
  bytes : int;
}

type t

val create : ?keep_records:bool -> ?max_records:int -> unit -> t
(** [create ()] keeps up to [max_records] (default 500_000) full records;
    aggregate counters are always exact regardless of retention. *)

val add : t -> time:float -> op:op -> sector:int -> bytes:int -> unit

val read_bytes : t -> int
val write_bytes : t -> int
val read_count : t -> int
val write_count : t -> int

val write_mb : t -> float
(** Total MB (2^20 bytes) written, as reported in Table 1. *)

val read_mb : t -> float

val records : t -> record list
(** Retained records in submission order. *)

val dropped_records : t -> int
(** Requests NOT retained as records because the [max_records] cap was
    already reached when they arrived. Aggregate counters still include
    them; any rendering of {!records} with [dropped_records > 0] shows a
    truncated view. *)

val reset : t -> unit

val set_keep_records : t -> bool -> unit
(** Enable/disable retention of per-request records (aggregate counters
    are unaffected). Disabling drops already-retained records and clears
    the dropped counter. *)

val set_max_records : t -> int -> unit
(** Change the retention cap. Shrinking below the currently retained
    count discards the retained records (counting them as dropped) and
    restarts retention under the new cap. *)

val render_scatter : t -> string
(** ASCII scatter plot in the style of Figures 3/4, 78 columns by 22
    rows: x = time, y = sector; ['r'] marks reads, ['W'] writes, ['#']
    cells with both. *)

val sequentiality : t -> op -> float
(** Fraction of same-kind requests that continue where the previous one
    ended (within 64 sectors): ~1 for an append stream, ~0 for
    scattered access. Quantifies the Figures 3/4 write-lane contrast. *)

val to_csv : t -> string
(** "time,op,sector,bytes" lines for external plotting. *)
