open Version_store

let name = "SIAS-V"
let placement = Heapfile.Append_only
let capacity = 4

(* ---------------- the encoded vector ----------------

   [0..7]   vid (int64)
   [8..9]   count (u16)
   [10..17] overflow tid + 1 (int64, 0 = none)
   then [count] version records, newest first:
     create int64, seq u32, flags u8, row_len u32, row bytes

   Flags byte: bit 0 = tombstone; bits 1-2 = creator hint
   ({!Tuple.Hint}), patched lazily on first visibility resolution and
   preserved across re-appends so later readers skip the CLOG.

   The store never decodes a vector whole. A record is named by its
   offset in the item; the walker below steps from record to record by
   the length field, reads the fixed-offset fields in place and decodes
   only the row a caller returns. Writes splice: a new item is the new
   header and record followed by record bytes copied verbatim, which is
   exactly what re-encoding the decoded records would produce. *)

let header_size = 18
let hint_shift = 1

let item_vid b = Int64.to_int (Bytes.get_int64_le b 0)
let count b = Bytes.get_uint16_le b 8

let older b =
  let ov = Int64.to_int (Bytes.get_int64_le b 10) in
  if ov = 0 then Tid.invalid else Tid.of_int (ov - 1)

(* The overflow pointer sits at a fixed offset, so GC can repoint it in
   place without changing the item length. *)
let set_older b tid =
  Bytes.set_int64_le b 10 (Int64.of_int (if Tid.is_invalid tid then 0 else Tid.to_int tid + 1))

(* Fields of the record at offset [p]. *)
let create b p = Int64.to_int (Bytes.get_int64_le b p)
let seq b p = Int32.to_int (Bytes.get_int32_le b (p + 8))
let flags_off p = p + 12
let tombstone b p = Bytes.get_uint8 b (flags_off p) land 1 = 1
let hint b p = (Bytes.get_uint8 b (flags_off p) lsr hint_shift) land 3
let next b p = p + 17 + Int32.to_int (Bytes.get_int32_le b (p + 13))
let row_at b p = Value.decode_row b ~pos:(p + 17)

(* The record walker. [find b pred] is the offset of the first record
   satisfying [pred], newest first, or -1; [fold] visits every record. *)
let find b pred =
  let n = count b in
  let rec go i p = if i >= n then -1 else if pred b p then p else go (i + 1) (next b p) in
  go 0 header_size

let fold b f acc =
  let n = count b in
  let rec go i p acc = if i >= n then acc else go (i + 1) (next b p) (f acc p) in
  go 0 header_size acc

(* One encoded record holding the encoded [row], with no hint. *)
let record ~create ~seq ~tombstone row =
  let len = Bytes.length row in
  let r = Bytes.create (17 + len) in
  Bytes.set_int64_le r 0 (Int64.of_int create);
  Bytes.set_int32_le r 8 (Int32.of_int seq);
  Bytes.set_uint8 r (flags_off 0)
    ((if tombstone then 1 else 0) lor (Tuple.Hint.none lsl hint_shift));
  Bytes.set_int32_le r 13 (Int32.of_int len);
  Bytes.blit row 0 r 17 len;
  r

let whole r = (r, 0, Bytes.length r)

(* A vector item: the header, then the bytes of each [(src, off, len)]
   segment of encoded records, verbatim. *)
let assemble ~vid ~count ~overflow segments =
  let b = Bytes.create (List.fold_left (fun acc (_, _, len) -> acc + len) header_size segments) in
  Bytes.set_int64_le b 0 (Int64.of_int vid);
  Bytes.set_uint16_le b 8 count;
  set_older b overflow;
  ignore
    (List.fold_left
       (fun dst (src, off, len) ->
         Bytes.blit src off b dst len;
         dst + len)
       header_size segments);
  b

(* [cur] with the record [r] prepended: the header is rewritten and the
   old records follow unchanged. *)
let splice cur r =
  assemble ~vid:(item_vid cur) ~count:(count cur + 1) ~overflow:(older cur)
    [ whole r; (cur, header_size, Bytes.length cur - header_size) ]

(* A vector [vid] holding the first [n] records along [chain] (newest
   first, [n] at most their total), copied verbatim; no overflow. *)
let prefix ~vid chain n =
  let rec segments n = function
    | [] -> []
    | _ when n = 0 -> []
    | b :: rest ->
        let k = Stdlib.min n (count b) in
        let rec skip i p = if i = k then p else skip (i + 1) (next b p) in
        (b, header_size, skip 0 header_size - header_size) :: segments (n - k) rest
  in
  assemble ~vid ~count:n ~overflow:Tid.invalid (segments n chain)

let stamps item = List.rev (fold item (fun acc p -> (create item p, seq item p) :: acc) [])

(* ---------------- store ---------------- *)

type state = { mutable reads : int; mutable fetches : int; mutable compacted : int }

let init () = { reads = 0; fetches = 0; compacted = 0 }
let vidmap = paged_vidmap

(* overlapping writers are reported by the vector walk itself *)
let probe_writes = false

(* A visible version: its identity and its decoded row. *)
type hit = { h_create : int; h_seq : int; h_row : Value.t array }

let row h = h.h_row

let fetch t table tid =
  t.store.fetches <- t.store.fetches + 1;
  Db.charge_cpu t.db 1;
  Heapfile.read table.heap tid

(* First version visible to the snapshot, scanning newest-first through
   the vector and its overflow chain. *)
let visible t txn table vid =
  match Vidmap.get table.vidmap ~vid with
  | None -> None
  | Some entry ->
      t.store.reads <- t.store.reads + 1;
      let sees tid b p =
        let xid = create b p in
        Visibility.creator_visible_fast t.db ~heap:table.heap ~tid ~off:(flags_off p)
          ~shift:hint_shift txn.Txn.snapshot ~hint:(hint b p) ~xid
        || begin
             (* a skipped vector entry names an overlapping writer of
                this data item in the co-located lineage — under
                serializable mode that is an rw antidependency, no
                lock-table probe needed *)
             if t.track then Db.note_lineage_writer t.db ~reader:txn.Txn.xid ~writer:xid;
             false
           end
      in
      let rec scan tid =
        if Tid.is_invalid tid then None
        else
          match fetch t table tid with
          | None -> None
          | Some b ->
              let p = find b (sees tid) in
              if p < 0 then scan (older b)
              else if tombstone b p then None
              else Some { h_create = create b p; h_seq = seq b p; h_row = row_at b p }
      in
      scan entry

(* Newest non-aborted version across the vector chain, as its item and
   record offset. *)
let effective_head t table vid =
  match Vidmap.get table.vidmap ~vid with
  | None -> None
  | Some entry ->
      let mgr = t.db.Db.txnmgr in
      let rec scan tid =
        if Tid.is_invalid tid then None
        else
          match fetch t table tid with
          | None -> None
          | Some b ->
              let p = find b (fun b p -> Txn.status mgr (create b p) <> Txn.Aborted) in
              if p < 0 then scan (older b) else Some (b, p)
      in
      scan entry

let admit t txn table ~pk candidates =
  let has_key vid =
    match visible t txn table vid with Some h -> pk_of table h.h_row = pk | None -> false
  in
  let taken vid =
    match effective_head t table vid with
    | None -> false
    | Some (b, p) ->
        pk_of table (row_at b p) = pk
        && insert_blocked t txn ~create:(create b p) ~tombstone:(tombstone b p)
  in
  if List.exists has_key candidates then Some Engine.Duplicate_key
  (* the pk index is probed afresh: its page accesses are part of the
     simulated model *)
  else if List.exists taken (Index.lookup table.pk_index ~key:pk) then
    Some Engine.Write_conflict
  else None

let add t txn table ~pk row =
  add_item t txn table ~pk row (fun ~vid ~seq ->
      assemble ~vid ~count:1 ~overflow:Tid.invalid
        [ whole (record ~create:txn.Txn.xid ~seq ~tombstone:false (Value.encode_row row)) ])

let lock_key ~pk:_ ~payload = payload

let claim t txn table vid (visible_h : hit) =
  match effective_head t table vid with
  | None -> Vanished
  | Some (b, p) ->
      let head = create b p in
      Claim
        {
          contended =
            head <> txn.Txn.xid && Txn.status t.db.Db.txnmgr head = Txn.In_progress;
          stale = not (head = visible_h.h_create && seq b p = visible_h.h_seq);
        }

(* Re-append the vector with the new version spliced in front; a full
   vector spills unchanged into an overflow item and a fresh one starts. *)
let supersede t txn table ~payload:vid _hit ~old_row new_row =
  match Vidmap.get table.vidmap ~vid with
  | None -> Error Engine.Not_found
  | Some cur_tid -> (
      match fetch t table cur_tid with
      | None -> Error Engine.Not_found
      | Some cur ->
          let xid = txn.Txn.xid in
          let r =
            record ~create:xid ~seq:(next_seq t xid) ~tombstone:(Option.is_none new_row)
              (Value.encode_row (Option.value new_row ~default:old_row))
          in
          let fresh =
            if count cur >= capacity then
              assemble ~vid ~count:1 ~overflow:(append_item t table ~xid cur) [ whole r ]
            else splice cur r
          in
          let tid = append_item t table ~xid fresh in
          repoint_item t txn table ~vid ~old_entry:cur_tid tid ~old_row new_row;
          Ok ())

let scan t txn table f =
  for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
    match visible t txn table vid with Some h -> f h.h_row | None -> ()
  done

(* ---------------- garbage collection ----------------

   A heap item (a vector copy) is live iff it is reachable from its
   item's VID_map entry through the overflow chain, or referenced by an
   active writer's undo record. Compaction first rewrites chains that
   contain versions no snapshot can need (the superseded copies become
   unreachable garbage for the sweep). GC reads go through the vacuum
   ring: no stats pollution, no working-set eviction, I/O still charged. *)

(* Drop versions no snapshot can need. A version is dead when a younger
   committed version is below the horizon, or its creator aborted; a
   committed tombstone below the horizon kills the whole item. *)
let compact t table =
  let mgr = t.db.Db.txnmgr in
  let horizon = Txn.horizon mgr in
  for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
    match if locked t table vid then None else Vidmap.get table.vidmap ~vid with
    | None -> ()
    | Some entry ->
        (* every vector copy along the overflow chain, newest first *)
        let rec gather tid acc =
          if Tid.is_invalid tid then List.rev acc
          else
            match Heapfile.read_ro table.heap tid with
            | None -> List.rev acc
            | Some b -> gather (older b) (b :: acc)
        in
        let chain = gather entry [] in
        let total = List.fold_left (fun acc b -> acc + count b) 0 chain in
        (* the live prefix: everything older than the first dead version
           is dead too *)
        let n_live = ref 0 and succ_committed = ref None in
        let dead b p =
          let c = create b p in
          Visibility.sias_dead_for_all mgr ~horizon ~create:c ~successor_create:!succ_committed
          || tombstone b p && c < horizon && Txn.status mgr c = Txn.Committed
          || begin
               incr n_live;
               if Txn.status mgr c = Txn.Committed then succ_committed := Some c;
               false
             end
        in
        ignore (List.exists (fun b -> find b dead >= 0) chain);
        if !n_live < total then begin
          t.store.compacted <- t.store.compacted + 1;
          if !n_live = 0 then begin
            (* the whole item is dead; its newest record names the key *)
            Vidmap.clear table.vidmap ~vid;
            ignore
              (Index.delete table.pk_index
                 ~key:(pk_of table (row_at (List.hd chain) header_size))
                 ~payload:vid)
          end
          else
            Vidmap.set table.vidmap ~vid (append_item t table ~xid:0 (prefix ~vid chain !n_live))
        end
  done

let mark t table =
  compact t table;
  let live = Hashtbl.create 1024 in
  let rec walk tid =
    if (not (Tid.is_invalid tid)) && not (Hashtbl.mem live (Tid.to_int tid)) then
      match Heapfile.read_ro table.heap tid with
      | None -> ()
      | Some b ->
          Hashtbl.replace live (Tid.to_int tid) (item_vid b);
          walk (older b)
  in
  for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
    Option.iter walk (Vidmap.get table.vidmap ~vid)
  done;
  (* copies an aborting writer may restore the VID_map to *)
  Hashtbl.iter
    (fun _xid cell ->
      List.iter (fun u -> if u.u_table == table then Option.iter walk u.u_old) !cell)
    t.undo;
  Some live

(* ---------------- recovery ---------------- *)

let live_row mgr item =
  let p = find item (fun b p -> Txn.status mgr (create b p) = Txn.Committed) in
  if p < 0 || tombstone item p then None else Some (row_at item p)

(* The copy holding the newest committed version wins; ties go to the
   fuller, then the later copy. The index is rebuilt from its newest
   committed, non-tombstone version. *)
let restore t table ~rebuild =
  let mgr = t.db.Db.txnmgr in
  let newest_committed item =
    fold item
      (fun best p ->
        let c = create item p and s = seq item p in
        if Txn.status mgr c <> Txn.Committed then best
        else
          match best with
          | Some (bc, bs) when bc > c || (bc = c && bs >= s) -> best
          | _ -> Some (c, s))
      None
  in
  restore_entrypoints table ~rebuild
    ~rank:(fun tid item ->
      ( item_vid item,
        Option.map
          (fun rank -> (rank, count item, Tid.to_int tid))
          (newest_committed item) ))
    ~indexed_row:(live_row mgr)

let count_versions t table =
  let total = ref 0 in
  for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
    match Vidmap.get table.vidmap ~vid with
    | None -> ()
    | Some entry ->
        let rec walk tid =
          if not (Tid.is_invalid tid) then
            match fetch t table tid with
            | None -> ()
            | Some b ->
                total := !total + count b;
                walk (older b)
        in
        walk entry
  done;
  let live = ref 0 in
  let mgr = t.db.Db.txnmgr in
  Vidmap.iter table.vidmap (fun _vid tid ->
      match fetch t table tid with
      | Some b ->
          let p = find b (fun b p -> Txn.status mgr (create b p) <> Txn.Aborted) in
          if p >= 0 && not (tombstone b p) then incr live
      | None -> ());
  (!total, !live)

let compacted t = t.store.compacted

let fetches_per_read t =
  if t.store.reads = 0 then 0.0
  else float_of_int t.store.fetches /. float_of_int t.store.reads
