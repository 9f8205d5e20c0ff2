(* The paper's Algorithms 1-3 differ from PostgreSQL-style SI in only two
   places: where a new version goes, and how the visibility walk reaches
   an older one. [Make] owns everything else, once, for every store. *)

open Version_store
module Bufpool = Sias_storage.Bufpool
module Page = Sias_storage.Page
module Lockmgr = Sias_txn.Lockmgr

module type VERSION_STORE = S

module Make (V : VERSION_STORE) = struct
  type t = V.state engine
  type nonrec table = table

  let name = V.name

  let create db =
    Walcodec.install_repair db;
    {
      db;
      tables = [];
      undo = Hashtbl.create 64;
      cmd_seq = Hashtbl.create 64;
      track = Db.ssi_tracking db;
      store = V.init ();
      swept = 0;
      relocated = 0;
      reclaimed = 0;
    }

  let db t = t.db

  let create_table t ~name:tname ~pk_col ?(secondary = []) () =
    let rel = Db.alloc_rel t.db in
    let heap =
      Heapfile.create ?seal_interval:t.db.Db.append_seal_interval t.db.Db.pool ~rel
        ~placement:V.placement
    in
    let pk_index = Index.create t.db in
    let secondary =
      Array.map (fun col -> (col, Index.create t.db)) (Array.of_list secondary)
    in
    let vidmap = V.vidmap t.db in
    let table = { tname; rel; heap; pk_col; vidmap; pk_index; secondary } in
    t.tables <- t.tables @ [ table ];
    table

  let begin_txn t = Db.begin_txn t.db

  let forget_txn t xid =
    Hashtbl.remove t.undo xid;
    Hashtbl.remove t.cmd_seq xid

  let commit t txn =
    forget_txn t txn.Txn.xid;
    try
      Db.commit t.db txn;
      Ok ()
    with Db.Serialization_failure _ -> Error Engine.Serialization_failure

  (* Restore the VID_map entries this transaction moved, and retract the
     pk entries of the items it created. *)
  let abort t txn =
    (match Hashtbl.find_opt t.undo txn.Txn.xid with
    | None -> ()
    | Some cell ->
        List.iter
          (fun u ->
            match u.u_old with
            | Some tid -> Vidmap.set u.u_table.vidmap ~vid:u.u_vid tid
            | None -> (
                Vidmap.clear u.u_table.vidmap ~vid:u.u_vid;
                match u.u_pk with
                | Some pk -> ignore (Index.delete u.u_table.pk_index ~key:pk ~payload:u.u_vid)
                | None -> ()))
          !cell);
    forget_txn t txn.Txn.xid;
    Db.abort t.db txn

  let note_read t txn table pk =
    if t.track then
      Db.note_read t.db ~xid:txn.Txn.xid ~rel:table.rel ~pk ~probe_writes:V.probe_writes

  let note_write t txn table pk =
    if t.track then Db.note_write t.db ~xid:txn.Txn.xid ~rel:table.rel ~pk

  let emit_write t txn table pk row =
    if Db.observed t.db then
      Db.emit t.db (Db.Event.Row_write { xid = txn.Txn.xid; rel = table.rel; pk; row })

  let find_index_on table col =
    let n = Array.length table.secondary in
    let rec go i =
      if i >= n then
        invalid_arg (Printf.sprintf "%s.lookup: no index on column %d" V.name col)
      else
        let c, index = table.secondary.(i) in
        if c = col then index else go (i + 1)
    in
    go 0

  (* The data item carrying [pk]: the first pk-index candidate whose
     visible version really has the key. *)
  let find_item t txn table pk =
    let candidates = Index.lookup table.pk_index ~key:pk in
    Db.charge_cpu t.db (List.length candidates);
    List.find_map
      (fun payload ->
        match V.visible t txn table payload with
        | Some hit ->
            let row = V.row hit in
            if pk_of table row = pk then Some (payload, hit, row) else None
        | None -> None)
      candidates

  let read t txn table ~pk =
    let row = match find_item t txn table pk with Some (_, _, row) -> Some row | None -> None in
    note_read t txn table pk;
    if Db.observed t.db then
      Db.emit t.db (Db.Event.Row_read { xid = txn.Txn.xid; rel = table.rel; pk; row });
    row

  let lookup t txn table ~col ~key =
    let index = find_index_on table col in
    let payloads = Index.lookup index ~key in
    Db.charge_cpu t.db (List.length payloads);
    List.filter_map
      (fun payload ->
        match V.visible t txn table payload with
        | Some hit ->
            let row = V.row hit in
            (* stale entries from key updates are filtered here *)
            if Value.to_key row.(col) = key then begin
              note_read t txn table (pk_of table row);
              Some row
            end
            else None
        | None -> None)
      payloads

  let range_pk t txn table ~lo ~hi =
    let entries = Index.range table.pk_index ~lo ~hi in
    Db.charge_cpu t.db (List.length entries);
    List.filter_map
      (fun (key, payload) ->
        match V.visible t txn table payload with
        | Some hit ->
            let row = V.row hit in
            if pk_of table row = key then begin
              note_read t txn table key;
              Some row
            end
            else None
        | None -> None)
      entries

  let scan t txn table f =
    if t.track then
      Db.note_scan t.db ~xid:txn.Txn.xid ~rel:table.rel ~probe_writes:V.probe_writes;
    let count = ref 0 in
    V.scan t txn table (fun row ->
        incr count;
        f row);
    !count

  (* Unique-key admission: the store judges the pk-index candidates. *)
  let insert t txn table row =
    let pk = pk_of table row in
    let candidates = Index.lookup table.pk_index ~key:pk in
    Db.charge_cpu t.db (List.length candidates);
    match V.admit t txn table ~pk candidates with
    | Some e -> Error e
    | None ->
        V.add t txn table ~pk row;
        note_write t txn table pk;
        emit_write t txn table pk (Some row);
        Ok ()

  (* First-updater-wins, no wait: an in-progress writer of the item holds
     its writer lock, so a held lock aborts the write at once; a newer
     version than the visible one loses outright. A stale claim with no
     in-progress writer does not take the lock. *)
  let write t txn table ~pk make_row =
    match find_item t txn table pk with
    | None -> Error Engine.Not_found
    | Some (payload, hit, old_row) -> (
        match V.claim t txn table payload hit with
        | Vanished -> Error Engine.Not_found
        | Claim { contended; stale } -> (
            let granted =
              (contended || not stale)
              && Lockmgr.try_acquire t.db.Db.lockmgr ~xid:txn.Txn.xid ~rel:table.rel
                   ~key:(V.lock_key ~pk ~payload)
                 = Lockmgr.Granted
            in
            if stale || not granted then Error Engine.Write_conflict
            else
              let new_row = make_row old_row in
              (match new_row with
              | Some row when pk_of table row <> pk ->
                  invalid_arg (V.name ^ ".update: primary key must not change")
              | _ -> ());
              match V.supersede t txn table ~payload hit ~old_row new_row with
              | Error e -> Error e
              | Ok () ->
                  note_write t txn table pk;
                  emit_write t txn table pk new_row;
                  Ok ()))

  let update t txn table ~pk f = write t txn table ~pk (fun row -> Some (f row))
  let delete t txn table ~pk = write t txn table ~pk (fun _ -> None)

  (* ---------------- garbage collection ----------------

     The store's mark phase either reclaims in place and returns [None],
     or returns the live heap items (a slot bitmap) for the sweep: dead
     slots on pages not yet on stable storage are deleted (marking there
     is free — the page will be written once anyway); a sealed page whose
     live fraction is below the threshold has its live items re-appended
     at the tail, the single incoming reference of each repaired, and the
     whole page discarded with a TRIM — never a small in-place write.
     Mark and sweep judge items in the pinned page and copy only what
     leaves it; the order of their pool accesses is part of the model. *)

  let fill_threshold = 0.55

  let relocate t table live old_tid =
    (* re-fetch: an earlier relocation's pointer repair may have patched
       this very item in place after the sweep captured the page *)
    match Heapfile.read_ro table.heap old_tid with
    | None -> ()
    | Some item ->
        let vid = V.item_vid item 0 in
        let new_tid = append_item t table ~xid:0 item in
        Liveset.remove live old_tid;
        Liveset.add live new_tid;
        (match Vidmap.get table.vidmap ~vid with
        | Some entry when Tid.equal entry old_tid -> Vidmap.set table.vidmap ~vid new_tid
        | Some entry ->
            let rec repair tid =
              if not (Tid.is_invalid tid) then
                match Heapfile.read_ro table.heap tid with
                | None -> ()
                | Some newer ->
                    let older = V.older newer 0 in
                    if Tid.equal older old_tid then begin
                      V.set_older newer new_tid;
                      if not (Heapfile.update_in_place table.heap tid newer) then
                        failwith (V.name ^ ".gc: pointer repair failed");
                      Walcodec.log_heap t.db ~xid:0 ~rel:table.rel ~kind:Wal.Update ~tid
                        ~item:newer
                    end
                    else repair older
            in
            repair entry
        | None -> ());
        t.relocated <- t.relocated + 1

  let sweep t table live =
    let nblocks = Heapfile.nblocks table.heap in
    let tail = match Heapfile.last_block table.heap with Some b -> b | None -> -1 in
    let page_size = Bufpool.page_size t.db.Db.pool in
    for block = 0 to nblocks - 1 do
      if not (Heapfile.discarded table.heap block) then begin
        let sealed = Heapfile.sealed table.heap block in
        (* the page's items split by the live set, each list in descending
           slot order; on a sealed page also the live bytes, and whether
           no writer holds a live item *)
        let live_slots = ref [] and dead_slots = ref [] in
        let live_bytes = ref 0 and movable = ref true in
        Bufpool.with_page_ro t.db.Db.pool ~rel:table.rel ~block (fun page ->
            let buf = Page.buffer page in
            for slot = 0 to Page.slot_count page - 1 do
              let off = Page.item_offset page slot in
              if off >= 0 then begin
                let tid = Tid.make ~block ~slot in
                if Liveset.mem live tid then begin
                  live_slots := tid :: !live_slots;
                  if sealed then begin
                    live_bytes := !live_bytes + Page.item_length page slot;
                    if !movable && locked t table (V.item_vid buf off) then movable := false
                  end
                end
                else dead_slots := tid :: !dead_slots
              end
            done);
        if not sealed then
          List.iter
            (fun tid ->
              Heapfile.delete table.heap tid;
              Walcodec.log_heap t.db ~xid:0 ~rel:table.rel ~kind:Wal.Delete ~tid
                ~item:Bytes.empty;
              t.swept <- t.swept + 1)
            !dead_slots
        else if
          !movable && block <> tail && (!live_slots <> [] || !dead_slots <> [])
          && float_of_int !live_bytes /. float_of_int page_size < fill_threshold
        then begin
          List.iter (relocate t table live) !live_slots;
          t.swept <- t.swept + List.length !dead_slots;
          Walcodec.log_trim t.db ~rel:table.rel ~block (fun () ->
              Heapfile.discard_block table.heap block);
          t.reclaimed <- t.reclaimed + 1
        end
      end
    done

  let gc t = List.iter (fun table -> Option.iter (sweep t table) (V.mark t table)) t.tables

  (* ---------------- recovery ----------------

     Replay the CLOG and the heap, restore each heap from its surviving
     blocks, reopen the indexes, then let the store rebuild its entry
     points (and the array indexes) from on-tuple information alone. *)

  (* The write-ahead rule's loud guard: redo never stamps a page past the
     durable log end, so an on-device heap image beyond it reached the
     device ahead of its records, and LSNs recovery hands out again would
     be skipped by redo's page-LSN guard. *)
  let check_write_ahead t table ~nblocks =
    let durable = Wal.current_lsn t.db.Db.wal in
    for block = 0 to nblocks - 1 do
      match Bufpool.image_lsn t.db.Db.pool ~rel:table.rel ~block with
      | Some lsn when lsn > durable ->
          raise
            (Walcodec.Redo_divergence
               {
                 rel = table.rel;
                 block;
                 detail =
                   Printf.sprintf
                     "on-device page LSN %d is past the durable WAL end %d: \
                      the page reached the device ahead of its log records"
                     lsn durable;
               })
      | Some _ | None -> ()
    done

  let recover t =
    Walcodec.replay_clog t.db;
    Walcodec.redo t.db ~since_lsn:0;
    List.iter
      (fun table ->
        Sias_chaos.Crashpoint.reach "recover.heap.restore";
        (* GC-trimmed holes may lie anywhere below the heap's extent *)
        let nblocks = Bufpool.extent t.db.Db.pool ~rel:table.rel in
        check_write_ahead t table ~nblocks;
        table.heap <-
          Heapfile.restore t.db.Db.pool ~rel:table.rel ~placement:V.placement ~nblocks;
        table.vidmap <- V.vidmap t.db;
        table.pk_index <- Index.recover t.db table.pk_index;
        table.secondary <-
          Array.map (fun (col, idx) -> (col, Index.recover t.db idx)) table.secondary;
        (* paged indexes came back from their own replayed pages; only the
           array implementation is rebuilt from the heap (entries of
           crashed — hence aborted — transactions that redo re-applied to
           a paged index are filtered by visibility, like lazy deletion) *)
        V.restore t table ~rebuild:(Index.needs_rebuild table.pk_index))
      t.tables

  let table_stats t table =
    let total, live = V.count_versions t table in
    {
      Engine.heap_blocks = Heapfile.live_blocks table.heap;
      live_versions = live;
      total_versions = total;
      avg_fill = Heapfile.avg_fill table.heap;
    }

  let index_summary t =
    List.map
      (fun table ->
        ( table.tname,
          Index.summary table.pk_index
          :: Array.to_list (Array.map (fun (_, i) -> Index.summary i) table.secondary) ))
      t.tables

  let table_vidmap (_ : t) table = table.vidmap

  let check_invariants t table =
    let mgr = t.db.Db.txnmgr in
    for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
      match Vidmap.get table.vidmap ~vid with
      | None -> ()
      | Some entry -> (
          let in_order prev (c, s) =
            (match prev with
            | Some (pc, ps) when (c, s) >= (pc, ps) ->
                failwith
                  (Printf.sprintf "version order violated for vid %d: (%d,%d) under (%d,%d)"
                     vid c s pc ps)
            | _ -> ());
            Some (c, s)
          in
          let rec walk tid prev =
            if not (Tid.is_invalid tid) then
              match Heapfile.read table.heap tid with
              | None -> () (* pruned tail *)
              | Some item ->
                  if V.item_vid item 0 <> vid then
                    failwith
                      (Printf.sprintf "vid %d reaches item %d of vid %d" vid (Tid.to_int tid)
                         (V.item_vid item 0));
                  walk (V.older item 0) (List.fold_left in_order prev (V.stamps item))
          in
          walk entry None;
          match Heapfile.read table.heap entry with
          | None -> failwith (Printf.sprintf "vid %d entrypoint dangles" vid)
          | Some item -> (
              match V.live_row mgr item with
              | Some row
                when not (List.mem vid (Index.lookup table.pk_index ~key:(pk_of table row))) ->
                  failwith (Printf.sprintf "vid %d unreachable through pk index" vid)
              | _ -> ()))
    done
end
