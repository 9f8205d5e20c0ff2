(* What an engine is made of besides its version store: the table and
   engine records {!Engine_skeleton.Make} works on, the helpers the
   stores share, and the signature [S] a store implements. *)

module Tid = Sias_storage.Tid
module Heapfile = Sias_storage.Heapfile
module Txn = Sias_txn.Txn
module Wal = Sias_wal.Wal

type table = {
  tname : string;
  rel : int;
  mutable heap : Heapfile.t;
  pk_col : int;
  mutable vidmap : Vidmap.t; (* entrypoint per VID; empty for TID-addressed stores *)
  mutable pk_index : Index.t; (* key = pk, payload = TID or VID *)
  mutable secondary : (int * Index.t) array; (* (column, index) *)
}

(* Per-transaction undo: restores the VID_map on abort. [u_old = None]
   means the VID was freshly allocated, and [u_pk] is its pk entry. *)
type undo = { u_table : table; u_vid : int; u_old : Tid.t option; u_pk : int option }

type 's engine = {
  db : Db.t;
  mutable tables : table list;
  undo : (int, undo list ref) Hashtbl.t; (* per xid, newest first *)
  cmd_seq : (int, int ref) Hashtbl.t; (* per-xid command sequence *)
  track : bool;
      (* serializability tracking on (isolation <> `Si); cached so hot
         paths pay one local branch and SI stays byte-identical *)
  store : 's; (* the store's private counters *)
  mutable swept : int; (* dead heap items removed by GC *)
  mutable relocated : int; (* live items re-appended from reclaimed pages *)
  mutable reclaimed : int; (* pages discarded with a TRIM *)
}

(* What a writer finds at the item it wants to supersede: nothing left
   ([Not_found]), or the item with [contended] — an in-progress writer
   holds its writer lock, so the lock is tried first — and
   [stale] — a newer version than the visible one exists, so the write
   loses (first updater wins). *)
type claim = Vanished | Claim of { contended : bool; stale : bool }

(* ---------------- helpers the stores share ---------------- *)

let pk_of table row = Value.to_key row.(table.pk_col)

(* Insert [row]'s keys into the pk index, then every secondary index. *)
let index_row table ~payload row =
  Index.insert table.pk_index ~key:(pk_of table row) ~payload;
  Array.iter
    (fun (col, index) -> Index.insert index ~key:(Value.to_key row.(col)) ~payload)
    table.secondary

(* An active writer holds this item's lock: GC must not move or reap it,
   since the writer's undo record points at its pre-update entrypoint. *)
let locked t table vid = Sias_txn.Lockmgr.holder t.db.Db.lockmgr ~rel:table.rel ~key:vid <> None

let next_seq t xid =
  let cell =
    match Hashtbl.find_opt t.cmd_seq xid with
    | Some c -> c
    | None ->
        let c = ref 0 in
        Hashtbl.replace t.cmd_seq xid c;
        c
  in
  incr cell;
  !cell

let push_undo t xid u =
  match Hashtbl.find_opt t.undo xid with
  | Some cell -> cell := u :: !cell
  | None -> Hashtbl.replace t.undo xid (ref [ u ])

(* A fresh VID_map, in buffer-pool pages when the context asks for it
   (paper Section 4.1.3). *)
let paged_vidmap db =
  if db.Db.vidmap_paged then Vidmap.create ~backing:(db.Db.pool, Db.alloc_rel db) ()
  else Vidmap.create ()

let append_item t table ~xid item =
  let tid = Heapfile.insert table.heap item in
  Walcodec.log_heap ~append_only:true t.db ~xid ~rel:table.rel ~kind:Wal.Insert ~tid ~item;
  tid

(* A new data item under a fresh VID: append its first heap item
   ([encode ~vid ~seq]), point the VID_map at it, log the undo, and index
   it — once per data item, not per version. *)
let add_item t txn table ~pk row encode =
  let xid = txn.Txn.xid in
  let vid = Vidmap.alloc_vid table.vidmap in
  let tid = append_item t table ~xid (encode ~vid ~seq:(next_seq t xid)) in
  Vidmap.set table.vidmap ~vid tid;
  push_undo t xid { u_table = table; u_vid = vid; u_old = None; u_pk = Some pk };
  index_row table ~payload:vid row;
  Db.charge_cpu t.db (2 + Array.length table.secondary)

(* After appending an item's new entrypoint [tid]: log the undo, move the
   VID_map entry, and index only the secondary keys the new row changed
   ([None] is a tombstone: no index work). *)
let repoint_item t txn table ~vid ~old_entry tid ~old_row new_row =
  push_undo t txn.Txn.xid { u_table = table; u_vid = vid; u_old = Some old_entry; u_pk = None };
  Vidmap.set table.vidmap ~vid tid;
  (match new_row with
  | Some row ->
      Array.iter
        (fun (col, index) ->
          let new_key = Value.to_key row.(col) in
          if Value.to_key old_row.(col) <> new_key then
            Index.insert index ~key:new_key ~payload:vid)
        table.secondary
  | None -> ());
  Db.charge_cpu t.db 1

(* Unique-key admission against an item's newest non-aborted version:
   another in-progress writer, or a live version committed after our
   snapshot, makes the insert a write conflict; a committed tombstone
   frees the key. *)
let insert_blocked t txn ~create ~tombstone =
  create <> txn.Txn.xid
  &&
  match Txn.status t.db.Db.txnmgr create with
  | Txn.In_progress -> true
  | Txn.Committed -> not tombstone
  | Txn.Aborted -> false

(* Recovery for VID-addressed stores: [rank] gives each heap item's VID
   and, if it holds a committed version, a rank; the highest-ranked item
   per VID becomes the entrypoint. With [rebuild], [indexed_row] gives
   the row to index for it ([None] for a tombstone). *)
let restore_entrypoints table ~rebuild ~rank ~indexed_row =
  let best = Hashtbl.create 1024 in
  let max_vid = ref (-1) in
  Heapfile.iter table.heap (fun tid item ->
      let vid, r = rank tid item in
      if vid > !max_vid then max_vid := vid;
      match r with
      | None -> ()
      | Some r -> (
          match Hashtbl.find_opt best vid with
          | Some (best_r, _, _) when compare r best_r <= 0 -> ()
          | _ -> Hashtbl.replace best vid (r, tid, item)));
  for _ = 0 to !max_vid do
    ignore (Vidmap.alloc_vid table.vidmap)
  done;
  Hashtbl.iter
    (fun vid (_, tid, item) ->
      Vidmap.set table.vidmap ~vid tid;
      if rebuild then Option.iter (index_row table ~payload:vid) (indexed_row item))
    best

(* ---------------- the GC live set ----------------

   One bit per heap slot, a bitmap per block: the mark phase adds every
   heap item it reaches, and relocation moves an item's bit from its old
   TID to its new one, growing the set for blocks appended after the
   mark. Blocks and bitmaps grow by doubling; a block no live item lies
   on keeps the shared empty bitmap. *)

module Liveset = struct
  type t = { mutable blocks : Bytes.t array }

  let create ~blocks = { blocks = Array.make (Stdlib.max 1 blocks) Bytes.empty }

  (* The bitmap of [block], at least wide enough for [slot]. *)
  let bitmap t ~block ~slot =
    let n = Array.length t.blocks in
    if block >= n then begin
      let grown = Array.make (Stdlib.max (block + 1) (2 * n)) Bytes.empty in
      Array.blit t.blocks 0 grown 0 n;
      t.blocks <- grown
    end;
    let b = t.blocks.(block) in
    let need = (slot lsr 3) + 1 in
    if Bytes.length b >= need then b
    else begin
      let wider = Bytes.make (Stdlib.max need (2 * Bytes.length b)) '\000' in
      Bytes.blit b 0 wider 0 (Bytes.length b);
      t.blocks.(block) <- wider;
      wider
    end

  let add t tid =
    let slot = Tid.slot tid in
    let b = bitmap t ~block:(Tid.block tid) ~slot in
    let i = slot lsr 3 in
    Bytes.set_uint8 b i (Bytes.get_uint8 b i lor (1 lsl (slot land 7)))

  let mem t tid =
    let block = Tid.block tid and slot = Tid.slot tid in
    block < Array.length t.blocks
    &&
    let b = t.blocks.(block) in
    let i = slot lsr 3 in
    i < Bytes.length b && Bytes.get_uint8 b i land (1 lsl (slot land 7)) <> 0

  let remove t tid =
    if mem t tid then begin
      let slot = Tid.slot tid in
      let b = t.blocks.(Tid.block tid) in
      let i = slot lsr 3 in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i land lnot (1 lsl (slot land 7)))
    end
end

(* ---------------- the store signature ---------------- *)

module type S = sig
  val name : string
  val placement : Heapfile.placement

  type state

  val init : unit -> state

  val vidmap : Db.t -> Vidmap.t
  (** The map each table gets at creation and recovery. *)

  val probe_writes : bool
  (** Whether serializable-mode reads probe the shared write table
      (PostgreSQL-style), or the visibility walk already reports the
      overlapping writers from the co-located lineage. *)

  type hit
  (** A visible version, as the visibility walk found it. *)

  val visible : state engine -> Txn.t -> table -> int -> hit option
  (** The version of the item behind an index payload that the snapshot
      sees. The walk over older versions stays inside the store. *)

  val row : hit -> Value.t array

  val admit : state engine -> Txn.t -> table -> pk:int -> int list -> Engine.error option
  (** Unique-key verdict on the pk-index candidates for a new row's key. *)

  val add : state engine -> Txn.t -> table -> pk:int -> Value.t array -> unit
  (** Place a new item, index it and charge its CPU. *)

  val lock_key : pk:int -> payload:int -> int
  val claim : state engine -> Txn.t -> table -> int -> hit -> claim

  val supersede :
    state engine ->
    Txn.t ->
    table ->
    payload:int ->
    hit ->
    old_row:Value.t array ->
    Value.t array option ->
    (unit, Engine.error) result
  (** Under the writer lock: place the new version ([None] = delete),
      retire the old one, maintain indexes and charge CPU. *)

  val scan : state engine -> Txn.t -> table -> (Value.t array -> unit) -> unit
  (** Every visible row of the table. *)

  val mark : state engine -> table -> Liveset.t option
  (** GC mark phase. [Some live] hands the TIDs of the live heap items to
      the sealed-page sweep; [None] means the store reclaimed in place.
      Marking reads items where they lie ({!Heapfile.with_item_ro}), in
      the same sequence of pool accesses as reading copies would. *)

  val item_vid : bytes -> int -> int
  (** [item_vid buf off]: the VID of the heap item at [off] in [buf]. *)

  val older : bytes -> int -> Tid.t
  (** [older buf off]: the pointer of the heap item at [off] in [buf] to
      the next-older item of its data item. *)

  val set_older : bytes -> Tid.t -> unit
  (** Patch that pointer in place (the item length must not change). *)

  val stamps : bytes -> (int * int) list
  (** (create, seq) of the versions a heap item holds, newest first. *)

  val live_row : Txn.mgr -> bytes -> Value.t array option
  (** The row of the heap item's newest committed version, unless that
      is a tombstone. *)

  val restore : state engine -> table -> rebuild:bool -> unit
  (** Rebuild entrypoints after the heap is restored, and the indexes too
      when [rebuild] (the array index came back empty). *)

  val count_versions : state engine -> table -> int * int
  (** (total, live) versions, for {!Engine.S.table_stats}. *)
end
