let bucket_capacity = 1024

(* On-page record format: 6 bytes per TID (32-bit block, 16-bit slot),
   all-ones meaning "unset". A bucket is one 6144-byte page item. *)
let record_size = 6
let bucket_bytes = bucket_capacity * record_size
let unset_marker = 0xFFFFFFFFFFFF

type storage =
  | In_memory of int array array ref (* bucket n at index n; grows by doubling *)
  | Paged of Sias_storage.Bufpool.t * int

type t = {
  storage : storage;
  mutable buckets : int;
  mutable next_vid : int;
  mutable lookups : int;
  mutable updates : int;
  mutable latches : int;
}


let create ?backing () =
  let storage =
    match backing with
    | Some (pool, rel) -> Paged (pool, rel)
    | None -> In_memory (ref [||])
  in
  { storage; buckets = 0; next_vid = 0; lookups = 0; updates = 0; latches = 0 }

let bucket_count t = t.buckets
let vid_count t = t.next_vid

let fresh_bucket_item () =
  let b = Bytes.make bucket_bytes '\xFF' in
  b

let add_bucket t =
  (match t.storage with
  | In_memory cell ->
      if t.buckets >= Array.length !cell then begin
        let bigger = Array.make (Stdlib.max 8 (2 * Array.length !cell)) [||] in
        Array.blit !cell 0 bigger 0 (Array.length !cell);
        cell := bigger
      end;
      !cell.(t.buckets) <- Array.make bucket_capacity unset_marker
  | Paged (pool, rel) ->
      Sias_storage.Bufpool.with_page pool ~rel ~block:t.buckets (fun page ->
          match Sias_storage.Page.insert page (fresh_bucket_item ()) with
          | Some 0 -> Sias_storage.Bufpool.mark_dirty pool ~rel ~block:t.buckets
          | Some _ | None -> failwith "Vidmap: bucket page not empty"));
  t.buckets <- t.buckets + 1

let alloc_vid t =
  let vid = t.next_vid in
  if vid / bucket_capacity >= t.buckets then add_bucket t;
  t.next_vid <- vid + 1;
  vid

(* A paged bucket's records are read and written where they lie in the
   frame: the bucket item's offset, then 6 bytes per VID. *)
let record_offset page pos =
  let base = Sias_storage.Page.item_offset page 0 in
  if base < 0 then failwith "Vidmap: missing bucket item";
  base + (pos * record_size)

let read_record t vid =
  let bucket = vid / bucket_capacity in
  let pos = vid mod bucket_capacity in
  match t.storage with
  | In_memory cell -> !cell.(bucket).(pos)
  | Paged (pool, rel) ->
      Sias_storage.Bufpool.with_page pool ~rel ~block:bucket (fun page ->
          let b = Sias_storage.Page.buffer page and off = record_offset page pos in
          let hi = Bytes.get_uint16_le b off in
          let lo = Bytes.get_uint16_le b (off + 2) in
          let slot = Bytes.get_uint16_le b (off + 4) in
          (hi lsl 32) lor (lo lsl 16) lor slot)

let write_record t vid value =
  let bucket = vid / bucket_capacity in
  let pos = vid mod bucket_capacity in
  t.latches <- t.latches + 1;
  match t.storage with
  | In_memory cell -> !cell.(bucket).(pos) <- value
  | Paged (pool, rel) ->
      Sias_storage.Bufpool.with_page pool ~rel ~block:bucket (fun page ->
          let b = Sias_storage.Page.buffer page and off = record_offset page pos in
          Bytes.set_uint16_le b off ((value lsr 32) land 0xFFFF);
          Bytes.set_uint16_le b (off + 2) ((value lsr 16) land 0xFFFF);
          Bytes.set_uint16_le b (off + 4) (value land 0xFFFF);
          Sias_storage.Bufpool.mark_dirty pool ~rel ~block:bucket)

let check_vid t vid name =
  if vid < 0 || vid >= t.next_vid then invalid_arg ("Vidmap." ^ name ^ ": VID not allocated")

let set t ~vid tid =
  check_vid t vid "set";
  t.updates <- t.updates + 1;
  write_record t vid (Sias_storage.Tid.to_int tid)

let get t ~vid =
  if vid < 0 || vid >= t.next_vid then None
  else begin
    t.lookups <- t.lookups + 1;
    let v = read_record t vid in
    if v = unset_marker then None else Some (Sias_storage.Tid.of_int v)
  end

let clear t ~vid =
  check_vid t vid "clear";
  t.updates <- t.updates + 1;
  write_record t vid unset_marker

let iter t f =
  for vid = 0 to t.next_vid - 1 do
    match get t ~vid with Some tid -> f vid tid | None -> ()
  done

type stats = { lookups : int; updates : int; latches : int }

let stats (t : t) = { lookups = t.lookups; updates = t.updates; latches = t.latches }
