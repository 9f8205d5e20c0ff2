open Version_store

let name = "SIAS-V"
let placement = Heapfile.Append_only
let capacity = 4

(* ---------------- vector codec ----------------

   [0..7]   vid (int64)
   [8..9]   count (u16)
   [10..17] overflow tid + 1 (int64, 0 = none)
   then [count] version records, newest first:
     create int64, seq u32, flags u8, row_len u32, row bytes

   Flags byte: bit 0 = tombstone; bits 1-2 = creator hint
   ({!Tuple.Hint}), patched lazily on first visibility resolution and
   preserved across re-appends so later readers skip the CLOG. *)

let hint_shift = 1

type version = {
  v_create : int;
  v_seq : int;
  v_tombstone : bool;
  v_hint : int; (* {!Tuple.Hint} value for [v_create]; none = unknown *)
  v_flags_off : int; (* flags-byte offset within the decoded item; -1 if fresh *)
  v_row : Value.t array;
}

type vector = {
  vec_vid : int;
  overflow : Tid.t;
  versions : version array; (* newest first; length = occupancy *)
}

(* First version satisfying [p], scanning newest-first. *)
let find_version p versions =
  let n = Array.length versions in
  let rec go i =
    if i >= n then None
    else
      let v = Array.unsafe_get versions i in
      if p v then Some v else go (i + 1)
  in
  go 0

let encode_vector vec =
  let buf = Buffer.create 256 in
  Buffer.add_int64_le buf (Int64.of_int vec.vec_vid);
  Buffer.add_uint16_le buf (Array.length vec.versions);
  Buffer.add_int64_le buf
    (Int64.of_int (if Tid.is_invalid vec.overflow then 0 else Tid.to_int vec.overflow + 1));
  Array.iter
    (fun v ->
      Buffer.add_int64_le buf (Int64.of_int v.v_create);
      Buffer.add_int32_le buf (Int32.of_int v.v_seq);
      Buffer.add_uint8 buf ((if v.v_tombstone then 1 else 0) lor (v.v_hint lsl hint_shift));
      let row = Value.encode_row v.v_row in
      Buffer.add_int32_le buf (Int32.of_int (Bytes.length row));
      Buffer.add_bytes buf row)
    vec.versions;
  Buffer.to_bytes buf

let item_vid b = Int64.to_int (Bytes.get_int64_le b 0)

let older b =
  let ov = Int64.to_int (Bytes.get_int64_le b 10) in
  if ov = 0 then Tid.invalid else Tid.of_int (ov - 1)

(* The overflow pointer sits at a fixed offset, so GC can repoint it in
   place without changing the item length. *)
let set_older b tid =
  Bytes.set_int64_le b 10 (Int64.of_int (if Tid.is_invalid tid then 0 else Tid.to_int tid + 1))

let decode_vector b =
  let count = Bytes.get_uint16_le b 8 in
  let pos = ref 18 in
  (* explicit loop: decoding must advance [pos] strictly in record order *)
  let decode_one () =
    let v_create = Int64.to_int (Bytes.get_int64_le b !pos) in
    let v_seq = Int32.to_int (Bytes.get_int32_le b (!pos + 8)) in
    let v_flags_off = !pos + 12 in
    let flags = Bytes.get_uint8 b v_flags_off in
    let len = Int32.to_int (Bytes.get_int32_le b (!pos + 13)) in
    let v_row = Value.decode_row b ~pos:(!pos + 17) in
    pos := !pos + 17 + len;
    {
      v_create;
      v_seq;
      v_tombstone = flags land 1 = 1;
      v_hint = (flags lsr hint_shift) land 3;
      v_flags_off;
      v_row;
    }
  in
  let versions =
    if count = 0 then [||]
    else begin
      let arr = Array.make count (decode_one ()) in
      for i = 1 to count - 1 do
        arr.(i) <- decode_one ()
      done;
      arr
    end
  in
  { vec_vid = item_vid b; overflow = older b; versions }

let stamps item =
  Array.to_list (Array.map (fun v -> (v.v_create, v.v_seq)) (decode_vector item).versions)

(* ---------------- store ---------------- *)

type state = { mutable reads : int; mutable fetches : int; mutable compacted : int }

let init () = { reads = 0; fetches = 0; compacted = 0 }
let vidmap = paged_vidmap

(* overlapping writers are reported by the vector walk itself *)
let probe_writes = false

type hit = version

let row v = v.v_row

let fetch_vector t table tid =
  t.store.fetches <- t.store.fetches + 1;
  Db.charge_cpu t.db 1;
  match Heapfile.read table.heap tid with
  | None -> None
  | Some item -> Some (decode_vector item)

let append_vector t table ~xid vec = append_item t table ~xid (encode_vector vec)

(* First version visible to the snapshot, scanning newest-first through
   the vector and its overflow chain. *)
let visible t txn table vid =
  match Vidmap.get table.vidmap ~vid with
  | None -> None
  | Some entry ->
      t.store.reads <- t.store.reads + 1;
      let rec scan tid =
        if Tid.is_invalid tid then None
        else
          match fetch_vector t table tid with
          | None -> None
          | Some vec ->
              let n = Array.length vec.versions in
              let rec find i =
                if i >= n then scan vec.overflow
                else
                  let v = Array.unsafe_get vec.versions i in
                  if
                    Visibility.creator_visible_fast t.db ~heap:table.heap ~tid
                      ~off:v.v_flags_off ~shift:hint_shift txn.Txn.snapshot ~hint:v.v_hint
                      ~xid:v.v_create
                  then if v.v_tombstone then None else Some v
                  else begin
                    (* a skipped vector entry names an overlapping writer
                       of this data item in the co-located lineage — under
                       serializable mode that is an rw antidependency,
                       no lock-table probe needed *)
                    if t.track then
                      Db.note_lineage_writer t.db ~reader:txn.Txn.xid ~writer:v.v_create;
                    find (i + 1)
                  end
              in
              find 0
      in
      scan entry

(* Newest non-aborted version across the vector chain. *)
let effective_head t table vid =
  match Vidmap.get table.vidmap ~vid with
  | None -> None
  | Some entry ->
      let mgr = t.db.Db.txnmgr in
      let rec scan tid =
        if Tid.is_invalid tid then None
        else
          match fetch_vector t table tid with
          | None -> None
          | Some vec -> (
              match
                find_version (fun v -> Txn.status mgr v.v_create <> Txn.Aborted) vec.versions
              with
              | Some v -> Some v
              | None -> scan vec.overflow)
      in
      scan entry

let admit t txn table ~pk candidates =
  let has_key vid =
    match visible t txn table vid with Some v -> pk_of table v.v_row = pk | None -> false
  in
  let taken vid =
    match effective_head t table vid with
    | None -> false
    | Some v ->
        pk_of table v.v_row = pk
        && insert_blocked t txn ~create:v.v_create ~tombstone:v.v_tombstone
  in
  if List.exists has_key candidates then Some Engine.Duplicate_key
  (* the pk index is probed afresh: its page accesses are part of the
     simulated model *)
  else if List.exists taken (Index.lookup table.pk_index ~key:pk) then
    Some Engine.Write_conflict
  else None

let fresh_version txn ~seq ~tombstone row =
  {
    v_create = txn.Txn.xid;
    v_seq = seq;
    v_tombstone = tombstone;
    v_hint = Tuple.Hint.none;
    v_flags_off = -1;
    v_row = row;
  }

let add t txn table ~pk row =
  add_item t txn table ~pk row (fun ~vid ~seq ->
      encode_vector
        {
          vec_vid = vid;
          overflow = Tid.invalid;
          versions = [| fresh_version txn ~seq ~tombstone:false row |];
        })

let lock_key ~pk:_ ~payload = payload

let claim t txn table vid (visible_v : hit) =
  match effective_head t table vid with
  | None -> Vanished
  | Some head ->
      Claim
        {
          contended =
            head.v_create <> txn.Txn.xid
            && Txn.status t.db.Db.txnmgr head.v_create = Txn.In_progress;
          stale =
            not (head.v_create = visible_v.v_create && head.v_seq = visible_v.v_seq);
        }

(* Re-append the vector with the new version prepended; a full vector
   spills whole into an overflow vector and a fresh one starts. *)
let supersede t txn table ~payload:vid _hit ~old_row new_row =
  match Vidmap.get table.vidmap ~vid with
  | None -> Error Engine.Not_found
  | Some cur_tid -> (
      match fetch_vector t table cur_tid with
      | None -> Error Engine.Not_found
      | Some cur ->
          let xid = txn.Txn.xid in
          let v =
            fresh_version txn ~seq:(next_seq t xid) ~tombstone:(Option.is_none new_row)
              (Option.value new_row ~default:old_row)
          in
          let fresh =
            if Array.length cur.versions >= capacity then
              { vec_vid = vid; overflow = append_vector t table ~xid cur; versions = [| v |] }
            else { cur with versions = Array.append [| v |] cur.versions }
          in
          let tid = append_vector t table ~xid fresh in
          repoint_item t txn table ~vid ~old_entry:cur_tid tid ~old_row new_row;
          Ok ())

let scan t txn table f =
  for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
    match visible t txn table vid with Some v -> f v.v_row | None -> ()
  done

(* ---------------- garbage collection ----------------

   A heap item (a vector copy) is live iff it is reachable from its
   item's VID_map entry through the overflow chain, or referenced by an
   active writer's undo record. Compaction first rewrites chains that
   contain versions no snapshot can need (the superseded copies become
   unreachable garbage for the sweep). GC reads go through the vacuum
   ring: no stats pollution, no working-set eviction, I/O still charged. *)

let fetch_vector_ro table tid =
  match Heapfile.read_ro table.heap tid with
  | None -> None
  | Some item -> Some (decode_vector item)

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
        (* gather all versions across the overflow chain *)
        let rec gather tid acc =
          if Tid.is_invalid tid then List.rev acc
          else
            match fetch_vector_ro table tid with
            | None -> List.rev acc
            | Some vec -> gather vec.overflow (List.rev_append (Array.to_list vec.versions) acc)
        in
        let versions = gather entry [] in
        let rec live acc succ_committed = function
          | [] -> List.rev acc
          | v :: rest ->
              if
                Visibility.sias_dead_for_all mgr ~horizon ~create:v.v_create
                  ~successor_create:succ_committed
                || v.v_tombstone && v.v_create < horizon
                   && Txn.status mgr v.v_create = Txn.Committed
              then List.rev acc (* everything older is dead too *)
              else
                let succ_committed =
                  if Txn.status mgr v.v_create = Txn.Committed then Some v.v_create
                  else succ_committed
                in
                live (v :: acc) succ_committed rest
        in
        let live_versions = live [] None versions in
        if List.length live_versions < List.length versions then begin
          t.store.compacted <- t.store.compacted + 1;
          match live_versions with
          | [] ->
              (* the whole item is dead; [versions] is not empty *)
              Vidmap.clear table.vidmap ~vid;
              ignore
                (Index.delete table.pk_index
                   ~key:(pk_of table (List.hd versions).v_row)
                   ~payload:vid)
          | _ ->
              let tid =
                append_vector t table ~xid:0
                  { vec_vid = vid; overflow = Tid.invalid; versions = Array.of_list live_versions }
              in
              Vidmap.set table.vidmap ~vid tid
        end
  done

let mark t table =
  compact t table;
  let live = Hashtbl.create 1024 in
  let mark_chain entry =
    let rec walk tid =
      if (not (Tid.is_invalid tid)) && not (Hashtbl.mem live (Tid.to_int tid)) then
        match fetch_vector_ro table tid with
        | None -> ()
        | Some vec ->
            Hashtbl.replace live (Tid.to_int tid) vec.vec_vid;
            walk vec.overflow
    in
    walk entry
  in
  for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
    Option.iter mark_chain (Vidmap.get table.vidmap ~vid)
  done;
  (* copies an aborting writer may restore the VID_map to *)
  Hashtbl.iter
    (fun _xid cell ->
      List.iter
        (fun u -> if u.u_table == table then Option.iter mark_chain u.u_old)
        !cell)
    t.undo;
  Some live

(* ---------------- recovery ---------------- *)

let committed mgr v = Txn.status mgr v.v_create = Txn.Committed

let live_row mgr item =
  match find_version (committed mgr) (decode_vector item).versions with
  | Some v when not v.v_tombstone -> Some v.v_row
  | _ -> None

(* The newest committed version a vector copy holds, for choosing the
   authoritative copy of each item at recovery. *)
let copy_rank mgr vec =
  let best = ref None in
  Array.iter
    (fun v ->
      if committed mgr v then
        match !best with
        | Some (c, s) when c > v.v_create || (c = v.v_create && s >= v.v_seq) -> ()
        | _ -> best := Some (v.v_create, v.v_seq))
    vec.versions;
  !best

(* The copy holding the newest committed version wins; ties go to the
   fuller, then the later copy. The index is rebuilt from its newest
   committed, non-tombstone version. *)
let restore t table ~rebuild =
  let mgr = t.db.Db.txnmgr in
  restore_entrypoints table ~rebuild
    ~rank:(fun tid item ->
      let vec = decode_vector item in
      ( vec.vec_vid,
        Option.map
          (fun rank -> (rank, Array.length vec.versions, Tid.to_int tid))
          (copy_rank mgr vec) ))
    ~indexed_row:(live_row mgr)

let count_versions t table =
  let total = ref 0 in
  for vid = 0 to Vidmap.vid_count table.vidmap - 1 do
    match Vidmap.get table.vidmap ~vid with
    | None -> ()
    | Some entry ->
        let rec count tid =
          if not (Tid.is_invalid tid) then
            match fetch_vector t table tid with
            | None -> ()
            | Some vec ->
                total := !total + Array.length vec.versions;
                count vec.overflow
        in
        count entry
  done;
  let live = ref 0 in
  let mgr = t.db.Db.txnmgr in
  Vidmap.iter table.vidmap (fun _vid tid ->
      match fetch_vector t table tid with
      | Some vec -> (
          match
            find_version (fun v -> Txn.status mgr v.v_create <> Txn.Aborted) vec.versions
          with
          | Some v when not v.v_tombstone -> incr live
          | _ -> ())
      | None -> ());
  (!total, !live)

let compacted t = t.store.compacted

let fetches_per_read t =
  if t.store.reads = 0 then 0.0
  else float_of_int t.store.fetches /. float_of_int t.store.reads
