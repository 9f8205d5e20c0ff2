(* Paged, WAL-logged B+Tree over slotted 8 KB buffer-pool pages.

   Node page layout — slot 0 is a fixed 32-byte header item, every other
   live slot one entry:
     [0]      tag: 0 = leaf, 1 = internal
     [1]      level (u8): 0 = leaf
     [2]      flags: bit 0 = high key valid
     [3]      pad
     [4..7]   right-sibling block + 1 (i32 LE; 0 = none)
     [8..15]  high key (i64 LE)
     [16..23] high payload (i64 LE)
     [24..31] ref key (i64 LE) — prefix-truncation base, internal nodes
   Leaf entry (16 bytes): key i64 LE, payload i64 LE.
   Internal entry: shared u8, (8 - shared) big-endian key-suffix bytes
   against the node's ref key, payload i64 LE, child block i32 LE — the
   TPC-C composite keys share their warehouse/district high bytes, so
   separators shrink toward 14 bytes.
   Block 0 is the metadata page: root i64, height i64, nblocks i64.

   Entries order lexicographically by (key, payload), the same relation
   as {!Btree.cmp_pair}, so duplicate keys order deterministically.
   Internal entries are (minimum pair, child) with leftmost fallback: a
   probe below every separator descends into the first child.

   Slots 1.. are kept in that order, as PostgreSQL nbtree orders its line
   pointers: an insert opens a slot at its position and a delete closes
   one ({!Page.insert_at}, {!Page.remove}), so a node page has no dead
   slots. Lookups, inserts and deletes search the pinned page by binary
   search over its slot directory, reading fields straight from its
   buffer; an entry's left neighbour is the slot below. Only the split
   of a full node decodes a node's entry list.

   WAL-first: every structural change is planned as a list of page
   deltas against the current byte state, logged as one atomic Ix_batch
   record through the injected [log], and only then applied to the pool
   pages (stamping the batch LSN). Replay applies the identical deltas
   to identical bytes behind a page-LSN gate, so recovery is byte-exact
   and idempotent. [Ins] deltas carry no slot on purpose: the slot is
   the entry's key-order position, found by the same binary search over
   the page bytes. *)

module Bufpool = Sias_storage.Bufpool
module Page = Sias_storage.Page
module Bus = Sias_obs.Bus
module Crashpoint = Sias_chaos.Crashpoint

type op = Ins of bytes | Upd of int * bytes | Del of int
type delta = { d_block : int; d_new : bool; d_op : op }

type stats = { inserts : int; deletes : int; splits : int; merges : int; lookups : int }

type t = {
  pool : Bufpool.t;
  rel : int;
  log : delta list -> int;
  bus : Bus.t option;
  mutable root : int;
  mutable height : int; (* 1 = the root is a leaf *)
  mutable nblocks : int; (* including the metadata block 0 *)
  mutable entries : int;
  mutable inserts : int;
  mutable deletes : int;
  mutable splits : int;
  mutable merges : int;
  mutable lookups : int;
}

let leaf_cap = 300
let internal_cap = 250

(* ---------------- item codecs ---------------- *)

let i64 b off = Int64.to_int (Bytes.get_int64_le b off)

let header_item ~leaf ~level ~right ~high ~ref_key =
  let b = Bytes.make 32 '\000' in
  Bytes.set_uint8 b 0 (if leaf then 0 else 1);
  Bytes.set_uint8 b 1 level;
  (match high with
  | Some (hk, hp) ->
      Bytes.set_uint8 b 2 1;
      Bytes.set_int64_le b 8 (Int64.of_int hk);
      Bytes.set_int64_le b 16 (Int64.of_int hp)
  | None -> ());
  Bytes.set_int32_le b 4 (Int32.of_int (right + 1));
  Bytes.set_int64_le b 24 (Int64.of_int ref_key);
  b

let leaf_item ~key ~payload =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int key);
  Bytes.set_int64_le b 8 (Int64.of_int payload);
  b

let be_key k =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int k);
  b

let internal_item ~ref_key ~key ~payload ~child =
  let rb = be_key ref_key and kb = be_key key in
  let shared = ref 0 in
  while !shared < 8 && Bytes.get rb !shared = Bytes.get kb !shared do
    incr shared
  done;
  let s = !shared in
  let b = Bytes.create (1 + (8 - s) + 12) in
  Bytes.set_uint8 b 0 s;
  Bytes.blit kb s b 1 (8 - s);
  Bytes.set_int64_le b (9 - s) (Int64.of_int payload);
  Bytes.set_int32_le b (17 - s) (Int32.of_int child);
  b

let meta_item ~root ~height ~nblocks =
  let b = Bytes.create 24 in
  Bytes.set_int64_le b 0 (Int64.of_int root);
  Bytes.set_int64_le b 8 (Int64.of_int height);
  Bytes.set_int64_le b 16 (Int64.of_int nblocks);
  b

(* ---------------- in-place node reads ---------------- *)

(* Fields are read straight from the pinned page's buffer; [h] is the
   header item's offset. Slots 1.. hold the entries in (key, payload)
   order, so every search is a binary search over the slot directory. *)

let header page =
  let h = Page.item_offset page 0 in
  if h < 0 then failwith "Paged_btree: missing node header";
  h

let is_leaf buf h = Bytes.get_uint8 buf h = 0
let level_of buf h = Bytes.get_uint8 buf (h + 1)
let right_of buf h = Int32.to_int (Bytes.get_int32_le buf (h + 4)) - 1

let high_of buf h =
  if Bytes.get_uint8 buf (h + 2) land 1 = 1 then Some (i64 buf (h + 8), i64 buf (h + 16))
  else None

let ref_key_of buf h = i64 buf (h + 24)
let entry_count page = Page.slot_count page - 1

(* An internal key stores only the bytes after the prefix it shares with
   the node's ref key: keep the ref key's top [s] bytes and take the rest
   from the big-endian suffix. The 8-byte read at [off + 1] stays inside
   the item, which is [21 - s] bytes long. *)
let internal_key buf ~ref_key off =
  let s = Bytes.get_uint8 buf off in
  if s = 8 then ref_key
  else
    let suffix =
      Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_be buf (off + 1)) (8 * s))
    in
    if s = 0 then suffix else ref_key land (-1 lsl (64 - (8 * s))) lor suffix

let internal_payload buf off = i64 buf (off + 9 - Bytes.get_uint8 buf off)

let internal_child buf off =
  Int32.to_int (Bytes.get_int32_le buf (off + 17 - Bytes.get_uint8 buf off))

let child_of page slot = internal_child (Page.buffer page) (Page.item_offset page slot)

(* Whether the entry item at [off] of [buf] — a leaf item, or an
   internal one against [ref_key] — orders below (key, payload), or with
   [~or_equal] not above it. *)
let entry_below buf ~leaf ~ref_key off ~key ~payload ~or_equal =
  let k = if leaf then i64 buf off else internal_key buf ~ref_key off in
  if k <> key then k < key
  else
    let p = if leaf then i64 buf (off + 8) else internal_payload buf off in
    p < payload || (or_equal && p = payload)

(* The first slot in [1, slot_count] whose entry is not below
   (key, payload) — with [~or_equal], the first above it. *)
let search page h ~key ~payload ~or_equal =
  let buf = Page.buffer page in
  let leaf = is_leaf buf h and ref_key = ref_key_of buf h in
  let lo = ref 1 and hi = ref (Page.slot_count page) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if entry_below buf ~leaf ~ref_key (Page.item_offset page mid) ~key ~payload ~or_equal then
      lo := mid + 1
    else hi := mid
  done;
  !lo

(* Internal node: the slot of the rightmost pair <= (key, payload), or of
   the leftmost pair when the probe is below every separator. *)
let route page h ~key ~payload = Int.max 1 (search page h ~key ~payload ~or_equal:true - 1)

(* Leaf: the slot holding exactly (key, payload), or -1. *)
let find_pair page h ~key ~payload =
  let slot = search page h ~key ~payload ~or_equal:false in
  let buf = Page.buffer page and off = Page.item_offset page slot in
  if off >= 0 && i64 buf off = key && i64 buf (off + 8) = payload then slot else -1

(* Pin each node once on the way down, routing (key, payload) in place,
   and run [at_leaf] on the pinned leaf page. *)
let rec to_leaf t block ~key ~payload at_leaf =
  match
    Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
        let h = header page in
        if is_leaf (Page.buffer page) h then Either.Right (at_leaf page h)
        else Either.Left (child_of page (route page h ~key ~payload)))
  with
  | Either.Left child -> to_leaf t child ~key ~payload at_leaf
  | Either.Right r -> r

(* ---------------- decoded node view (split planning) ---------------- *)

(* The full entry list, in slot (= key) order, built only to split a
   node that is already full. Never cached. *)

type entry = { e_key : int; e_payload : int; e_child : int; e_slot : int }

type node = {
  nd_block : int;
  nd_leaf : bool;
  nd_level : int;
  nd_right : int; (* -1 = none *)
  nd_high : (int * int) option;
  nd_ref_key : int;
  nd_entries : entry array; (* in (key, payload) order *)
}

let cmp_entry a b =
  if a.e_key <> b.e_key then Int.compare a.e_key b.e_key
  else Int.compare a.e_payload b.e_payload

let decode_page page block =
  let buf = Page.buffer page and h = header page in
  let leaf = is_leaf buf h and ref_key = ref_key_of buf h in
  let entries =
    Array.init (entry_count page) (fun i ->
        let slot = i + 1 in
        let off = Page.item_offset page slot in
        if leaf then
          { e_key = i64 buf off; e_payload = i64 buf (off + 8); e_child = -1; e_slot = slot }
        else
          { e_key = internal_key buf ~ref_key off;
            e_payload = internal_payload buf off;
            e_child = internal_child buf off;
            e_slot = slot })
  in
  {
    nd_block = block;
    nd_leaf = leaf;
    nd_level = level_of buf h;
    nd_right = right_of buf h;
    nd_high = high_of buf h;
    nd_ref_key = ref_key;
    nd_entries = entries;
  }

(* ---------------- delta application ---------------- *)

(* An [Ins] goes to its key-order position, found by the same binary
   search over the page bytes that reads use (slot 0 on an empty page:
   the node header or the metadata item). *)
let apply_delta page d =
  match d.d_op with
  | Ins item ->
      let pos =
        if Page.slot_count page = 0 then 0
        else
          let h = header page in
          let buf = Page.buffer page in
          let key, payload =
            if is_leaf buf h then (i64 item 0, i64 item 8)
            else (internal_key item ~ref_key:(ref_key_of buf h) 0, internal_payload item 0)
          in
          search page h ~key ~payload ~or_equal:false
      in
      if not (Page.insert_at page pos item) then
        failwith "Paged_btree.apply_delta: page full (replay divergence)"
  | Upd (slot, item) ->
      if not (Page.update page slot item) then
        failwith "Paged_btree.apply_delta: update does not fit (replay divergence)"
  | Del slot -> Page.remove page slot

let observed t = match t.bus with Some b -> Bus.active b | None -> false
let emit t e = match t.bus with Some b -> Bus.publish b e | None -> ()

(* WAL-first commit of one structural change: log the batch (the logger
   adds full-page-write protection), then apply the deltas block by
   block, stamping the batch LSN. The two crash points model losing
   power after the record is durable but before any page changed, and
   between the page writes of a multi-page change (a torn split). *)
let run_batch t deltas =
  let lsn = t.log deltas in
  Crashpoint.reach "index.wal.pre-apply";
  let blocks =
    List.fold_left
      (fun acc d -> if List.mem d.d_block acc then acc else d.d_block :: acc)
      [] deltas
    |> List.rev
  in
  List.iteri
    (fun i block ->
      if i > 0 then Crashpoint.reach "index.split.mid";
      Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
          if Page.lsn page < lsn then begin
            List.iter (fun d -> if d.d_block = block then apply_delta page d) deltas;
            Page.set_lsn page lsn
          end);
      Bufpool.mark_dirty t.pool ~rel:t.rel ~block;
      if observed t then
        emit t
          (Bus.Index_page_io
             {
               rel = t.rel;
               block;
               deltas = List.length (List.filter (fun d -> d.d_block = block) deltas);
             }))
    blocks

(* ---------------- create / restore ---------------- *)

let fresh pool ~rel ~log ~bus =
  {
    pool;
    rel;
    log;
    bus;
    root = 1;
    height = 1;
    nblocks = 2;
    entries = 0;
    inserts = 0;
    deletes = 0;
    splits = 0;
    merges = 0;
    lookups = 0;
  }

let init_batch t =
  run_batch t
    [
      {
        d_block = 1;
        d_new = true;
        d_op = Ins (header_item ~leaf:true ~level:0 ~right:(-1) ~high:None ~ref_key:0);
      };
      { d_block = 0; d_new = true; d_op = Ins (meta_item ~root:1 ~height:1 ~nblocks:2) };
    ]

let create pool ~rel ~log ?bus () =
  let t = fresh pool ~rel ~log ~bus in
  init_batch t;
  t

(* Down the first children from the root to the leftmost leaf, then
   right along the leaf chain: each node is pinned once and [f] runs on
   every leaf page in key order. *)
let iter_leaves t f =
  let rec go block =
    let next =
      Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
          let buf = Page.buffer page and h = header page in
          if is_leaf buf h then begin
            f page;
            right_of buf h
          end
          else child_of page 1)
    in
    if next >= 0 then go next
  in
  go t.root

let restore pool ~rel ~log ?bus () =
  let t = fresh pool ~rel ~log ~bus in
  let meta = Bufpool.with_page t.pool ~rel ~block:0 (fun page -> Page.read page 0) in
  (match meta with
  | None ->
      (* The creation batch never reached the durable WAL prefix, so at
         this recovery horizon the tree never existed — and neither did
         any heap row logged after it (WAL flushing is prefix-ordered).
         Re-initialize it empty rather than failing recovery. *)
      init_batch t
  | Some m ->
      t.root <- i64 m 0;
      t.height <- i64 m 8;
      t.nblocks <- i64 m 16;
      let count = ref 0 in
      iter_leaves t (fun page -> count := !count + entry_count page);
      t.entries <- !count);
  t

(* ---------------- insert ---------------- *)

exception Duplicate

(* Split a full node around the median of its entry list plus [fresh]
   (the entry being added, [e_slot = -1]). The separator is the right
   node's first pair; in a leaf it stays in the leaf. Returns the
   separator and the new right block for the parent to absorb. *)
let plan_split deltas alloc splits node fresh =
  let item ~ref_key e =
    if node.nd_leaf then leaf_item ~key:e.e_key ~payload:e.e_payload
    else internal_item ~ref_key ~key:e.e_key ~payload:e.e_payload ~child:e.e_child
  in
  let all = List.merge cmp_entry (Array.to_list node.nd_entries) [ fresh ] in
  let m = List.length all / 2 in
  let left, right = (List.filteri (fun i _ -> i < m) all, List.filteri (fun i _ -> i >= m) all) in
  let sep = List.hd right in
  let rb = alloc () in
  let rd =
    { d_block = rb; d_new = true;
      d_op = Ins (header_item ~leaf:node.nd_leaf ~level:node.nd_level ~right:node.nd_right
                    ~high:node.nd_high ~ref_key:sep.e_key) }
    :: List.map
         (fun e -> { d_block = rb; d_new = true; d_op = Ins (item ~ref_key:sep.e_key e) })
         right
  in
  let on_left op = { d_block = node.nd_block; d_new = false; d_op = op } in
  let ld =
    (* the pre-existing entries that moved right are the top slots:
       remove them from the top down, so each planned slot is still the
       entry's when its removal is applied *)
    List.filter_map
      (fun e -> if e.e_slot >= 0 then Some (on_left (Del e.e_slot)) else None)
      (List.rev right)
    @ (if List.exists (fun e -> e.e_slot = -1) left then
         [ on_left (Ins (item ~ref_key:node.nd_ref_key fresh)) ]
       else [])
    @ [ on_left
          (Upd
             ( 0,
               header_item ~leaf:node.nd_leaf ~level:node.nd_level ~right:rb
                 ~high:(Some (sep.e_key, sep.e_payload)) ~ref_key:node.nd_ref_key )) ]
  in
  deltas := List.rev_append rd (List.rev_append ld !deltas);
  splits := (node.nd_level, rb) :: !splits;
  Some (sep.e_key, sep.e_payload, rb)

(* Plan the insert along one root-to-leaf path, splitting full nodes
   bottom-up into the same batch. Each node is pinned once and searched
   in place; only a node already at capacity is decoded, for its split.
   Returns [Some (sep_key, sep_payload, right_block)] when the caller's
   level must absorb a new separator. *)
let rec plan_insert t deltas alloc splits block ~key ~payload =
  let leaf, hit, ref_key, full =
    Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
        let h = header page and buf = Page.buffer page in
        let leaf = is_leaf buf h in
        (* leaf: the slot of an equal pair; internal: the routed child *)
        let hit =
          if leaf then find_pair page h ~key ~payload
          else child_of page (route page h ~key ~payload)
        in
        let cap = if leaf then leaf_cap else internal_cap in
        ( leaf,
          hit,
          ref_key_of buf h,
          if entry_count page < cap then None else Some (decode_page page block) ))
  in
  if leaf then begin
    if hit >= 0 then raise Duplicate;
    match full with
    | None ->
        deltas := { d_block = block; d_new = false; d_op = Ins (leaf_item ~key ~payload) } :: !deltas;
        None
    | Some node ->
        plan_split deltas alloc splits node
          { e_key = key; e_payload = payload; e_child = -1; e_slot = -1 }
  end
  else
    match plan_insert t deltas alloc splits hit ~key ~payload with
    | None -> None
    | Some (sk, sp, child) -> (
        match full with
        | None ->
            deltas :=
              { d_block = block; d_new = false;
                d_op = Ins (internal_item ~ref_key ~key:sk ~payload:sp ~child) }
              :: !deltas;
            None
        | Some node ->
            plan_split deltas alloc splits node
              { e_key = sk; e_payload = sp; e_child = child; e_slot = -1 })

let insert t ~key ~payload =
  let deltas = ref [] in
  let nalloc = ref t.nblocks in
  let alloc () =
    let b = !nalloc in
    incr nalloc;
    b
  in
  let splits = ref [] in
  match
    let up = plan_insert t deltas alloc splits t.root ~key ~payload in
    (match up with
    | None -> ()
    | Some (sk, sp, rb) ->
        (* root split: a fresh root routes everything below the first
           separator into the old root via a min-pair leftmost entry *)
        let nr = alloc () in
        let level = t.height in
        deltas :=
          { d_block = 0; d_new = false;
            d_op = Upd (0, meta_item ~root:nr ~height:(t.height + 1) ~nblocks:!nalloc) }
          :: { d_block = nr; d_new = true;
               d_op = Ins (internal_item ~ref_key:min_int ~key:sk ~payload:sp ~child:rb) }
          :: { d_block = nr; d_new = true;
               d_op = Ins (internal_item ~ref_key:min_int ~key:min_int
                             ~payload:min_int ~child:t.root) }
          :: { d_block = nr; d_new = true;
               d_op = Ins (header_item ~leaf:false ~level ~right:(-1) ~high:None
                             ~ref_key:min_int) }
          :: !deltas);
    if up = None && !nalloc > t.nblocks then
      deltas :=
        { d_block = 0; d_new = false;
          d_op = Upd (0, meta_item ~root:t.root ~height:t.height ~nblocks:!nalloc) }
        :: !deltas;
    run_batch t (List.rev !deltas);
    t.nblocks <- !nalloc;
    (match up with
    | Some _ ->
        t.root <- !nalloc - 1;
        t.height <- t.height + 1
    | None -> ());
    t.entries <- t.entries + 1;
    t.inserts <- t.inserts + 1;
    t.splits <- t.splits + List.length !splits;
    if observed t then
      List.iter
        (fun (level, _) -> emit t (Bus.Index_split { rel = t.rel; level }))
        (List.rev !splits)
  with
  | () -> ()
  | exception Duplicate -> ()

(* ---------------- delete ---------------- *)

let delete t ~key ~payload =
  (* descend with the exact pair; at the leaf's parent (level 1) remember
     the routed slot, its left neighbour's child and the entry count,
     which the merge and the root collapse need *)
  let parent = ref None in
  let rec descend block =
    match
      Bufpool.with_page t.pool ~rel:t.rel ~block (fun page ->
          let h = header page and buf = Page.buffer page in
          if is_leaf buf h then
            Either.Right
              (find_pair page h ~key ~payload, entry_count page, right_of buf h, high_of buf h)
          else begin
            let slot = route page h ~key ~payload in
            if level_of buf h = 1 then begin
              let left = if slot > 1 then child_of page (slot - 1) else -1 in
              parent := Some (block, slot, left, entry_count page)
            end;
            Either.Left (child_of page slot)
          end)
    with
    | Either.Left child -> descend child
    | Either.Right found -> (block, found)
  in
  let leaf_block, (slot, count, right, high) = descend t.root in
  if slot < 0 then false
  else begin
    let deltas = ref [ { d_block = leaf_block; d_new = false; d_op = Del slot } ] in
    let merged = ref false in
    (match !parent with
    | Some (pblock, pslot, left, pcount) when count = 1 && left >= 0 ->
        (* the leaf empties and has a left sibling under the same
           parent: absorb its right link and high key into the left
           sibling, drop the parent separator, and let the empty page
           leak (a right-link orphan, skipped by every traversal) *)
        let left_header =
          Bufpool.with_page t.pool ~rel:t.rel ~block:left (fun page ->
              let buf = Page.buffer page and h = header page in
              header_item ~leaf:(is_leaf buf h) ~level:(level_of buf h) ~right ~high
                ~ref_key:(ref_key_of buf h))
        in
        deltas :=
          { d_block = pblock; d_new = false; d_op = Del pslot }
          :: { d_block = left; d_new = false; d_op = Upd (0, left_header) }
          :: !deltas;
        merged := true;
        if pblock = t.root && pcount = 2 && t.height >= 2 then begin
          (* the root would keep a single separator: collapse it onto
             the surviving child *)
          deltas :=
            { d_block = 0; d_new = false;
              d_op = Upd (0, meta_item ~root:left ~height:(t.height - 1) ~nblocks:t.nblocks) }
            :: !deltas;
          t.root <- left;
          t.height <- t.height - 1
        end
    | _ -> ());
    run_batch t (List.rev !deltas);
    t.entries <- t.entries - 1;
    t.deletes <- t.deletes + 1;
    if !merged then begin
      t.merges <- t.merges + 1;
      (* the emptied node is always a leaf *)
      if observed t then emit t (Bus.Index_merge { rel = t.rel; level = 0 })
    end;
    true
  end

(* ---------------- reads ---------------- *)

let range t ~lo ~hi =
  t.lookups <- t.lookups + 1;
  if lo > hi then []
  else begin
    let acc = ref [] in
    (* add a leaf's in-range pairs, from the first key >= [lo] up; return
       the right sibling to continue with, or -1 when the leaf holds a
       key above [hi] *)
    let gather page h =
      let buf = Page.buffer page in
      let n = Page.slot_count page in
      let slot = ref (search page h ~key:lo ~payload:min_int ~or_equal:false) in
      while !slot < n && i64 buf (Page.item_offset page !slot) <= hi do
        let off = Page.item_offset page !slot in
        acc := (i64 buf off, i64 buf (off + 8)) :: !acc;
        incr slot
      done;
      if !slot < n then -1 else right_of buf h
    in
    let next = ref (to_leaf t t.root ~key:lo ~payload:min_int gather) in
    while !next >= 0 do
      next := Bufpool.with_page t.pool ~rel:t.rel ~block:!next (fun page -> gather page (header page))
    done;
    List.rev !acc
  end

let lookup t ~key = List.map snd (range t ~lo:key ~hi:key)

let mem t ~key ~payload =
  to_leaf t t.root ~key ~payload (fun page h -> find_pair page h ~key ~payload >= 0)

let iter t f =
  let pairs = ref [] in
  iter_leaves t (fun page ->
      let buf = Page.buffer page in
      for slot = 1 to entry_count page do
        let off = Page.item_offset page slot in
        pairs := (i64 buf off, i64 buf (off + 8)) :: !pairs
      done);
  List.iter (fun (k, p) -> f k p) (List.rev !pairs)

let entry_count t = t.entries
let height t = t.height
let node_count t = t.nblocks - 1

let stats t =
  {
    inserts = t.inserts;
    deletes = t.deletes;
    splits = t.splits;
    merges = t.merges;
    lookups = t.lookups;
  }
