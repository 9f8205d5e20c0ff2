open Version_store

let name = "SIAS-Chains"
let placement = Heapfile.Append_only

type state = { mutable walks : int; mutable visited : int }

let init () = { walks = 0; visited = 0 }
let vidmap = paged_vidmap

(* overlapping writers are reported by the lineage walk itself *)
let probe_writes = false

type hit = Tid.t * bytes

let row (_, item) = Tuple.Sias.row item

(* Algorithm 1's inner loop: walk the chain from the entrypoint and
   return the first version whose creator is visible; a visible tombstone
   means the item is deleted for this snapshot. *)
let visible t txn table vid =
  match Vidmap.get table.vidmap ~vid with
  | None -> None
  | Some entry ->
      let st = t.store in
      st.walks <- st.walks + 1;
      let rec walk tid =
        if Tid.is_invalid tid then None
        else
          match Heapfile.read table.heap tid with
          | None -> None (* pruned tail: the chain ends here *)
          | Some item ->
              st.visited <- st.visited + 1;
              Db.charge_cpu t.db 1;
              let h = Tuple.Sias.header item in
              if h.vid <> vid then None (* slot reused after pruning *)
              else if
                Visibility.sias_creator_visible_fast t.db ~heap:table.heap ~tid
                  txn.Txn.snapshot ~hint:h.create_hint ~xid:h.create
              then if h.tombstone then None else Some (tid, item)
              else begin
                (* The research twist: a skipped chain version names an
                   overlapping writer of this data item right in the
                   co-located lineage — under serializable mode that is
                   an rw antidependency, no lock-table probe needed. *)
                if t.track then
                  Db.note_lineage_writer t.db ~reader:txn.Txn.xid ~writer:h.create;
                walk h.pred
              end
      in
      walk entry

(* The newest non-aborted version under the entrypoint. *)
let effective_entrypoint t table vid =
  match Vidmap.get table.vidmap ~vid with
  | None -> None
  | Some entry ->
      let rec walk tid =
        if Tid.is_invalid tid then None
        else
          match Heapfile.read table.heap tid with
          | None -> None
          | Some item ->
              let h = Tuple.Sias.header item in
              if h.vid <> vid then None
              else (
                match Txn.status t.db.Db.txnmgr h.create with
                | Txn.Aborted -> walk h.pred
                | Txn.In_progress | Txn.Committed -> Some (tid, h))
      in
      walk entry

let admit t txn table ~pk candidates =
  let has_key vid =
    match visible t txn table vid with Some hit -> pk_of table (row hit) = pk | None -> false
  in
  let taken vid =
    match effective_entrypoint t table vid with
    | None -> false
    | Some (etid, eh) -> (
        match Heapfile.read table.heap etid with
        | None -> false
        | Some item ->
            pk_of table (Tuple.Sias.row item) = pk
            && insert_blocked t txn ~create:eh.create ~tombstone:eh.tombstone)
  in
  if List.exists has_key candidates then Some Engine.Duplicate_key
  (* the pk index is probed afresh: its page accesses are part of the
     simulated model *)
  else if List.exists taken (Index.lookup table.pk_index ~key:pk) then
    Some Engine.Write_conflict
  else None

let add t txn table ~pk row =
  add_item t txn table ~pk row (fun ~vid ~seq ->
      Tuple.Sias.encode ~create:txn.Txn.xid ~seq ~vid ~pred:Tid.invalid ~tombstone:false ~row)

let lock_key ~pk:_ ~payload = payload

(* Algorithm 3: the update must start from the entrypoint — if a newer
   (non-aborted) version than the visible one exists, another transaction
   got there first. *)
let claim t txn table vid ((visible_tid, _) : hit) =
  match effective_entrypoint t table vid with
  | None -> Vanished
  | Some (etid, eh) ->
      Claim
        {
          contended =
            eh.create <> txn.Txn.xid
            && Txn.status t.db.Db.txnmgr eh.create = Txn.In_progress;
          stale = not (Tid.equal etid visible_tid);
        }

(* The successor points back at the old entrypoint, which is never
   touched again: creating it invalidates implicitly. *)
let supersede t txn table ~payload:vid _hit ~old_row new_row =
  let xid = txn.Txn.xid in
  let pred = match Vidmap.get table.vidmap ~vid with Some tid -> tid | None -> Tid.invalid in
  let tid =
    append_item t table ~xid
      (Tuple.Sias.encode ~create:xid ~seq:(next_seq t xid) ~vid ~pred
         ~tombstone:(Option.is_none new_row)
         ~row:(Option.value new_row ~default:old_row))
  in
  repoint_item t txn table ~vid ~old_entry:pred tid ~old_row new_row;
  Ok ()

(* Algorithm 1: scan over the VID_map, fetching only entrypoints (and
   predecessors when the snapshot needs older versions). *)
let scan t txn table f =
  for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
    match visible t txn table vid with Some hit -> f (row hit) | None -> ()
  done

(* What the mark walk finds at a chain link: a version some snapshot may
   still need, a dead tail (everything below is dead too), a dead item
   with the pk of its entrypoint, or a slot reused by another data item. *)
type link = Live of Tuple.Sias.header | Dead_tail | Dead_item of int | Foreign

(* Mark phase: walk every chain from its entrypoint and keep the versions
   some present or future snapshot may still need; a chain dead in its
   entirety (committed tombstone below the horizon) loses its VID_map and
   pk entries. GC reads go through the vacuum ring and judge each version
   where it lies; only a dead item's pk is decoded. *)
let mark t table =
  let mgr = t.db.Db.txnmgr in
  let horizon = Txn.horizon mgr in
  let live = Liveset.create ~blocks:(Heapfile.nblocks table.heap) in
  for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
    match Vidmap.get table.vidmap ~vid with
    | None -> ()
    | Some entry ->
        if locked t table vid then begin
          (* an active writer owns this item: its undo record points at
             the pre-update entrypoint, so keep everything reachable *)
          let own b o _ =
            let h = Tuple.Sias.header_at b o in
            if h.vid = vid then Live h else Foreign
          in
          let rec keep tid =
            if not (Tid.is_invalid tid) then
              match Heapfile.with_item_ro table.heap tid own with
              | Some (Live h) ->
                  Liveset.add live tid;
                  keep h.pred
              | _ -> ()
          in
          keep entry
        end
        else begin
          let judge ~succ_committed ~any_live b o _ =
            let h = Tuple.Sias.header_at b o in
            if h.vid <> vid then Foreign
            else if
              Visibility.sias_dead_for_all mgr ~horizon ~create:h.create
                ~successor_create:succ_committed
              || h.tombstone && h.create < horizon && Txn.status mgr h.create = Txn.Committed
            then if any_live then Dead_tail else Dead_item (pk_of table (Tuple.Sias.row_at b o))
            else Live h
          in
          let rec walk tid ~succ_committed ~any_live =
            if not (Tid.is_invalid tid) then
              match Heapfile.with_item_ro table.heap tid (judge ~succ_committed ~any_live) with
              | None | Some (Foreign | Dead_tail) -> ()
              | Some (Dead_item pk) ->
                  Vidmap.clear table.vidmap ~vid;
                  ignore (Index.delete table.pk_index ~key:pk ~payload:vid)
              | Some (Live h) ->
                  Liveset.add live tid;
                  let succ_committed =
                    if Txn.status mgr h.create = Txn.Committed then Some h.create
                    else succ_committed
                  in
                  walk h.pred ~succ_committed ~any_live:true
          in
          walk entry ~succ_committed:None ~any_live:false
        end
  done;
  Some live

let item_vid b o = (Tuple.Sias.header_at b o).vid
let older b o = (Tuple.Sias.header_at b o).pred
let set_older = Tuple.Sias.patch_pred

let stamps item =
  let h = Tuple.Sias.header item in
  [ (h.create, h.seq) ]

let live_row mgr item =
  let h = Tuple.Sias.header item in
  if (not h.tombstone) && Txn.status mgr h.create = Txn.Committed then Some (Tuple.Sias.row item)
  else None

(* The newest committed version per VID becomes the entrypoint. *)
let restore t table ~rebuild =
  let mgr = t.db.Db.txnmgr in
  restore_entrypoints table ~rebuild
    ~rank:(fun _ item ->
      let h = Tuple.Sias.header item in
      (h.vid, if Txn.status mgr h.create = Txn.Committed then Some (h.create, h.seq) else None))
    ~indexed_row:(live_row mgr)

let count_versions _t table =
  let total = ref 0 in
  Heapfile.iter table.heap (fun _ _ -> incr total);
  let live = ref 0 in
  Vidmap.iter table.vidmap (fun _vid tid ->
      match Heapfile.read table.heap tid with
      | Some item when not (Tuple.Sias.header item).tombstone -> incr live
      | _ -> ());
  (!total, !live)

let walk_stats t = (t.store.walks, t.store.visited)

(* The traditional scan: read the whole relation, then determine for each
   candidate whether it is the version Algorithm 1 would return. *)
let scan_traditional t txn table f =
  if t.track then Db.note_scan t.db ~xid:txn.Txn.xid ~rel:table.rel ~probe_writes:false;
  let count = ref 0 in
  Heapfile.iter table.heap (fun tid item ->
      Db.charge_cpu t.db 1;
      let h = Tuple.Sias.header item in
      if
        Visibility.sias_creator_visible_fast t.db ~heap:table.heap ~tid txn.Txn.snapshot
          ~hint:h.create_hint ~xid:h.create
      then
        match visible t txn table h.vid with
        | Some (vtid, _) when Tid.equal vtid tid ->
            incr count;
            f (Tuple.Sias.row item)
        | _ -> ());
  !count
