(* Layout:
     [0..7]   lsn (int64)
     [8..9]   nslots (u16)
     [10..11] lower: first free byte after the slot array (u16)
     [12..13] upper: first used data byte (u16)
     [14..15] live count (u16)
     [16]     flags (bit 0: no-slot-reuse — append-only storage never
              recycles a dead slot, so TIDs stay unique for the lifetime
              of the page and stale chain pointers can never alias a new
              tuple)
     [17..19] reserved
     [20..23] CRC32 of the page with this field zeroed; stamped when the
              image is written to stable storage, verified on read-in
              (PostgreSQL data checksums: torn writes and bit rot must
              fail loudly, never read as a valid page)
   Slot i at [header_size + 4*i]: u16 offset, u16 len.
     offset = 0xFFFF -> unused (never allocated data)
     len    = 0xFFFF -> dead
   Items are stored in [upper, size). *)

let header_size = 24
let slot_size = 4

let dead_len = 0xFFFF
let unused_off = 0xFFFF

type t = { buf : bytes; size : int }

let get16 t off = Bytes.get_uint16_le t.buf off
let set16 t off v = Bytes.set_uint16_le t.buf off v

let nslots t = get16 t 8
let set_nslots t v = set16 t 8 v
let lower t = get16 t 10
let set_lower t v = set16 t 10 v
let upper t = get16 t 12
let set_upper t v = set16 t 12 v
let live t = get16 t 14
let set_live t v = set16 t 14 v

let slot_pos i = header_size + (slot_size * i)
let slot_off t i = get16 t (slot_pos i)
let slot_len t i = get16 t (slot_pos i + 2)

let set_slot t i ~off ~len =
  set16 t (slot_pos i) off;
  set16 t (slot_pos i + 2) len

let init_empty t =
  set_nslots t 0;
  set_lower t header_size;
  set_upper t t.size;
  set_live t 0

let create ~size =
  if size < 64 || size > 65535 then invalid_arg "Page.create: size out of range";
  let t = { buf = Bytes.make size '\000'; size } in
  init_empty t;
  t

let reset t =
  Bytes.fill t.buf 0 t.size '\000';
  init_empty t

let size t = t.size

let lsn t = Int64.to_int (Bytes.get_int64_le t.buf 0)
let set_lsn t v = Bytes.set_int64_le t.buf 0 (Int64.of_int v)

let slot_count = nslots
let live_count = live

let no_slot_reuse t = Bytes.get_uint8 t.buf 16 land 1 = 1

let set_no_slot_reuse t =
  Bytes.set_uint8 t.buf 16 (Bytes.get_uint8 t.buf 16 lor 1)

let is_live t i =
  i >= 0 && i < nslots t && slot_off t i <> unused_off && slot_len t i <> dead_len

let read t i = if is_live t i then Some (Bytes.sub t.buf (slot_off t i) (slot_len t i)) else None
let item_offset t i = if is_live t i then slot_off t i else -1
let buffer t = t.buf

let live_bytes t =
  let total = ref 0 in
  for i = 0 to nslots t - 1 do
    if is_live t i then total := !total + slot_len t i
  done;
  !total

(* Free space counts the contiguous gap plus reclaimable holes, minus the
   cost of one more slot when no dead/unused slot is reusable. *)
let reusable_slot t =
  if no_slot_reuse t then None
  else begin
    let found = ref None in
    let i = ref 0 in
    let n = nslots t in
    while !found = None && !i < n do
      if not (is_live t !i) then found := Some !i;
      incr i
    done;
    !found
  end

let free_space t =
  let contiguous = upper t - lower t in
  let holes = t.size - upper t - live_bytes t in
  let slot_cost = match reusable_slot t with Some _ -> 0 | None -> slot_size in
  Stdlib.max 0 (contiguous + holes - slot_cost)

let fill_ratio t =
  let data_area = t.size - header_size in
  float_of_int (live_bytes t + (slot_size * nslots t)) /. float_of_int data_area

let iter t f =
  for i = 0 to nslots t - 1 do
    match read t i with Some item -> f i item | None -> ()
  done

(* Rewrite all live items tightly against the end of the page, preserving
   slot numbers (PostgreSQL's PageRepairFragmentation). *)
let compact t =
  let items = ref [] in
  for i = 0 to nslots t - 1 do
    if is_live t i then items := (i, Bytes.sub t.buf (slot_off t i) (slot_len t i)) :: !items
  done;
  let pos = ref t.size in
  List.iter
    (fun (i, item) ->
      let len = Bytes.length item in
      pos := !pos - len;
      Bytes.blit item 0 t.buf !pos len;
      set_slot t i ~off:!pos ~len)
    !items;
  set_upper t !pos

let insert t item =
  let len = Bytes.length item in
  if len = 0 || len >= dead_len then invalid_arg "Page.insert: bad item length";
  let slot, slot_cost =
    match reusable_slot t with Some i -> (i, 0) | None -> (nslots t, slot_size)
  in
  let fits_contiguous () = upper t - (lower t + slot_cost) >= len in
  let fits_after_compaction () =
    t.size - (lower t + slot_cost) - live_bytes t >= len
  in
  if not (fits_contiguous ()) && fits_after_compaction () then compact t;
  if not (fits_contiguous ()) then None
  else begin
    if slot = nslots t then begin
      set_nslots t (slot + 1);
      set_lower t (lower t + slot_size)
    end;
    let off = upper t - len in
    Bytes.blit item 0 t.buf off len;
    set_slot t slot ~off ~len;
    set_upper t off;
    set_live t (live t + 1);
    Some slot
  end

let update t i item =
  if not (is_live t i) then invalid_arg "Page.update: slot not live";
  let len = Bytes.length item in
  if len > slot_len t i then false
  else begin
    let off = slot_off t i in
    Bytes.blit item 0 t.buf off len;
    set16 t (slot_pos i + 2) len;
    true
  end

let delete t i =
  if i < 0 || i >= nslots t then invalid_arg "Page.delete: slot out of range";
  if is_live t i then begin
    set_slot t i ~off:(slot_off t i) ~len:dead_len;
    set_live t (live t - 1)
  end

(* Hint-bit patch: OR bits into one byte of a live item. Deliberately a
   pure cache-side mutation — no length change, no slot movement — so it
   is safe on a page that other readers hold item copies of. *)
let or_byte t i ~off ~bits =
  if is_live t i && off >= 0 && off < slot_len t i then begin
    let p = slot_off t i + off in
    Bytes.set_uint8 t.buf p (Bytes.get_uint8 t.buf p lor bits)
  end

let copy t = { buf = Bytes.copy t.buf; size = t.size }

let blit ~src ~dst =
  if src.size <> dst.size then invalid_arg "Page.blit: size mismatch";
  Bytes.blit src.buf 0 dst.buf 0 src.size

(* ---- raw image access (WAL full-page writes, fault injection) ---- *)

let to_bytes t = Bytes.copy t.buf

let of_bytes buf =
  let size = Bytes.length buf in
  if size < 64 || size > 65535 then invalid_arg "Page.of_bytes: size out of range";
  { buf; size }

let overwrite t image =
  if Bytes.length image <> t.size then invalid_arg "Page.overwrite: size mismatch";
  Bytes.blit image 0 t.buf 0 t.size

(* ---- checksums ---- *)

let checksum_off = 20

let compute_checksum t =
  let open Sias_util.Crc32 in
  let c = update init t.buf ~pos:0 ~len:checksum_off in
  let c = update c t.buf ~pos:(checksum_off + 4) ~len:(t.size - checksum_off - 4) in
  finish c

let stamp_checksum t =
  Bytes.set_int32_le t.buf checksum_off (Int32.of_int (compute_checksum t))

let checksum_ok t =
  let stored = Int32.to_int (Bytes.get_int32_le t.buf checksum_off) land 0xFFFFFFFF in
  stored = compute_checksum t
