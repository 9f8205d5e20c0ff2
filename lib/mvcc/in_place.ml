open Version_store
module Bufpool = Sias_storage.Bufpool
module Page = Sias_storage.Page

module type PROFILE = sig
  val name : string
  val placement : Heapfile.placement
end

module Make (P : PROFILE) = struct
  let name = P.name
  let placement = P.placement

  type state = unit

  let init () = ()

  (* items are addressed by TID; the VID_map stays empty and unbacked *)
  let vidmap _ = Vidmap.create ()

  (* no co-located lineage to walk: serializable-mode reads probe the
     shared write table instead *)
  let probe_writes = true

  type hit = Tid.t * bytes * Tuple.Si.header

  let row (_, item, _) = Tuple.Si.row item

  let visible t txn table tidi =
    let tid = Tid.of_int tidi in
    match Heapfile.read table.heap tid with
    | None -> None
    | Some item ->
        let h = Tuple.Si.header item in
        if Visibility.si_visible_fast t.db ~heap:table.heap ~tid txn.Txn.snapshot h then
          Some (tid, item, h)
        else None

  (* Like PostgreSQL's unique-index check against the latest version
     state: a visible live duplicate is a duplicate-key error; a duplicate
     that is live "right now" but not visible (in-progress inserter, or
     committed after our snapshot) is a write conflict. *)
  let admit t txn table ~pk candidates =
    let mgr = t.db.Db.txnmgr in
    let verdict_of tidi =
      let tid = Tid.of_int tidi in
      match Heapfile.read table.heap tid with
      | None -> None
      | Some item ->
          let h = Tuple.Si.header item in
          if pk_of table (Tuple.Si.row item) <> pk then None
          else if Visibility.si_visible_fast t.db ~heap:table.heap ~tid txn.Txn.snapshot h
          then Some Engine.Duplicate_key
          else begin
            match Txn.status mgr h.xmin with
            | Txn.Aborted -> None
            | Txn.In_progress ->
                (* own invisible version means we deleted it ourselves *)
                if h.xmin = txn.Txn.xid then None else Some Engine.Write_conflict
            | Txn.Committed ->
                let deleted_for_good =
                  h.xmax <> 0
                  && (h.xmax = txn.Txn.xid || Txn.status mgr h.xmax = Txn.Committed)
                in
                if deleted_for_good then None else Some Engine.Write_conflict
          end
    in
    (* a visible duplicate wins over a conflict verdict *)
    let verdicts = List.filter_map verdict_of candidates in
    if List.mem Engine.Duplicate_key verdicts then Some Engine.Duplicate_key
    else if verdicts <> [] then Some Engine.Write_conflict
    else None

  (* Every version pays index maintenance in every index. *)
  let place t txn table row =
    let item = Tuple.Si.encode ~xmin:txn.Txn.xid ~row in
    let tid = Heapfile.insert_owned table.heap ~owner:txn.Txn.xid item in
    Walcodec.log_heap t.db ~xid:txn.Txn.xid ~rel:table.rel ~kind:Wal.Insert ~tid ~item;
    index_row table ~payload:(Tid.to_int tid) row;
    Db.charge_cpu t.db (1 + Array.length table.secondary)

  let add t txn table ~pk:_ row =
    place t txn table row;
    Db.charge_cpu t.db 1

  let lock_key ~pk ~payload:_ = pk

  (* The visible version's invalidator decides: none (or ourselves) or
     aborted is free; committed after our snapshot is final; in progress
     holds the pk writer lock. *)
  let claim t txn _table _tidi ((_, _, h) : hit) =
    if h.xmax = 0 || h.xmax = txn.Txn.xid then Claim { contended = false; stale = false }
    else
      match Txn.status t.db.Db.txnmgr h.xmax with
      | Txn.Aborted -> Claim { contended = false; stale = false }
      | Txn.Committed -> Claim { contended = false; stale = true }
      | Txn.In_progress -> Claim { contended = true; stale = false }

  (* Invalidate the old version IN PLACE — the small write SI pays on the
     old version's page — then place the new one anywhere. *)
  let supersede t txn table ~payload:_ ((tid, item, _) : hit) ~old_row:_ new_row =
    Tuple.Si.patch_xmax item txn.Txn.xid;
    if not (Heapfile.update_in_place table.heap tid item) then
      failwith (name ^ ": in-place invalidation failed");
    Walcodec.log_heap t.db ~xid:txn.Txn.xid ~rel:table.rel ~kind:Wal.Update ~tid ~item;
    Option.iter (place t txn table) new_row;
    Db.charge_cpu t.db 2;
    Ok ()

  (* Traditional relation scan: fetch every tuple version and check each
     for visibility. *)
  let scan t txn table f =
    Heapfile.iter table.heap (fun tid item ->
        Db.charge_cpu t.db 1;
        if Visibility.si_visible_fast t.db ~heap:table.heap ~tid txn.Txn.snapshot
             (Tuple.Si.header item)
        then f (Tuple.Si.row item))

  (* Vacuum: physically remove versions no snapshot can ever see, and drop
     their index entries. Nothing is left for the sweep. Every page is
     read once through the vacuum ring and its versions judged where they
     lie; only a victim's row is decoded, for its index deletes. *)
  let mark t table =
    let mgr = t.db.Db.txnmgr in
    let horizon = Txn.horizon mgr in
    let victims = ref [] in
    for block = 0 to Heapfile.nblocks table.heap - 1 do
      if not (Heapfile.discarded table.heap block) then
        Bufpool.with_page_ro t.db.Db.pool ~rel:table.rel ~block (fun page ->
            let buf = Page.buffer page in
            for slot = 0 to Page.slot_count page - 1 do
              let off = Page.item_offset page slot in
              if off >= 0 && Visibility.si_dead_for_all mgr ~horizon (Tuple.Si.header_at buf off)
              then victims := (Tid.make ~block ~slot, Tuple.Si.row_at buf off) :: !victims
            done)
    done;
    List.iter
      (fun (tid, row) ->
        Heapfile.delete table.heap tid;
        Walcodec.log_heap t.db ~xid:0 ~rel:table.rel ~kind:Wal.Delete ~tid ~item:Bytes.empty;
        let payload = Tid.to_int tid in
        ignore (Index.delete table.pk_index ~key:(pk_of table row) ~payload);
        Array.iter
          (fun (col, index) -> ignore (Index.delete index ~key:(Value.to_key row.(col)) ~payload))
          table.secondary;
        t.swept <- t.swept + 1)
      !victims;
    None

  (* The versions of an item are linked only through the indexes: [mark]
     hands nothing to the sweep and the VID_map stays empty, so the hooks
     over heap-item links are never reached. *)
  let item_vid _ _ = invalid_arg (name ^ ": versions are never relocated")
  let older _ _ = Tid.invalid
  let set_older _ _ = invalid_arg (name ^ ": versions are never relocated")
  let stamps _ = []
  let live_row _ _ = None

  let restore t table ~rebuild =
    if rebuild then
      Heapfile.iter table.heap (fun tid item ->
          if Txn.status t.db.Db.txnmgr (Tuple.Si.header item).xmin <> Txn.Aborted then
            index_row table ~payload:(Tid.to_int tid) (Tuple.Si.row item))

  let count_versions t table =
    let mgr = t.db.Db.txnmgr in
    let total = ref 0 and live = ref 0 in
    Heapfile.iter table.heap (fun _ item ->
        incr total;
        let h = Tuple.Si.header item in
        let invalidated = h.xmax <> 0 && Txn.status mgr h.xmax = Txn.Committed in
        if (not invalidated) && Txn.status mgr h.xmin <> Txn.Aborted then incr live);
    (!total, !live)
end
