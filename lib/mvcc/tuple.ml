module Tid = Sias_storage.Tid

(* Hint bits (PostgreSQL-style): once a creating/invalidating
   transaction's fate is known, the answer is cached in spare bits of the
   on-tuple header so steady-state visibility checks never consult the
   transaction manager. Transaction ids are small positive ints, so the
   top two bits of each 8-byte little-endian timestamp field are free:
   bit 62 (0x40 of the most significant byte) = known committed, bit 63
   (0x80) = known aborted. Using spare bits keeps header sizes — and
   therefore page fill and device traffic — exactly as before. *)
module Hint = struct
  let none = 0
  let committed = 1
  let aborted = 2
end

(* Timestamp value with hint bits masked off. Composed from uint16 reads
   so the decode stays allocation-free — [Bytes.get_int64_le] boxes its
   result, which costs two minor-heap allocations per field in the scan
   loop. *)
let field b off =
  Bytes.get_uint16_le b off
  lor (Bytes.get_uint16_le b (off + 2) lsl 16)
  lor (Bytes.get_uint16_le b (off + 4) lsl 32)
  lor ((Bytes.get_uint16_le b (off + 6) land 0x3FFF) lsl 48)

(* Full 62-bit value of a field with no hint bits in it. *)
let raw_field b off =
  Bytes.get_uint16_le b off
  lor (Bytes.get_uint16_le b (off + 2) lsl 16)
  lor (Bytes.get_uint16_le b (off + 4) lsl 32)
  lor ((Bytes.get_uint16_le b (off + 6) land 0x7FFF) lsl 48)

(* 2-bit hint value stored in the top bits of the field at [off]. *)
let hint_at b off = Bytes.get_uint8 b (off + 7) lsr 6

module Si = struct
  type header = { xmin : int; xmax : int; xmin_hint : int; xmax_hint : int }

  let header_size = 16 (* xmin int64, xmax int64 *)
  let xmin_hint_byte = 7
  let xmax_hint_byte = 15

  let encode ~xmin ~row =
    let payload = Value.encode_row row in
    let b = Bytes.create (header_size + Bytes.length payload) in
    Bytes.set_int64_le b 0 (Int64.of_int xmin);
    Bytes.set_int64_le b 8 0L;
    Bytes.blit payload 0 b header_size (Bytes.length payload);
    b

  let header_at b o =
    {
      xmin = field b o;
      xmax = field b (o + 8);
      xmin_hint = hint_at b o;
      xmax_hint = hint_at b (o + 8);
    }

  let header b = header_at b 0
  let row_at b o = Value.decode_row b ~pos:(o + header_size)
  let row b = row_at b 0

  (* Overwriting the whole field also clears any stale xmax hint. *)
  let patch_xmax b xmax = Bytes.set_int64_le b 8 (Int64.of_int xmax)
  let clear_xmax b = Bytes.set_int64_le b 8 0L
end

module Sias = struct
  type header = {
    create : int;
    seq : int;
    vid : int;
    pred : Tid.t;
    tombstone : bool;
    create_hint : int;
  }

  let header_size = 29 (* create int64, vid int64, pred int64, seq u32, flags u8 *)
  let create_hint_byte = 7

  let encode ~create ~seq ~vid ~pred ~tombstone ~row =
    let payload = Value.encode_row row in
    let b = Bytes.create (header_size + Bytes.length payload) in
    Bytes.set_int64_le b 0 (Int64.of_int create);
    Bytes.set_int64_le b 8 (Int64.of_int vid);
    Bytes.set_int64_le b 16 (Int64.of_int (Tid.to_int pred));
    Bytes.set_int32_le b 24 (Int32.of_int seq);
    Bytes.set_uint8 b 28 (if tombstone then 1 else 0);
    Bytes.blit payload 0 b header_size (Bytes.length payload);
    b

  let header_at b o =
    {
      create = field b o;
      seq = Int32.to_int (Bytes.get_int32_le b (o + 24));
      vid = raw_field b (o + 8);
      pred = Tid.of_int (raw_field b (o + 16));
      tombstone = Bytes.get_uint8 b (o + 28) land 1 = 1;
      create_hint = hint_at b o;
    }

  let header b = header_at b 0
  let row_at b o = Value.decode_row b ~pos:(o + header_size)
  let row b = row_at b 0

  let patch_pred b pred = Bytes.set_int64_le b 16 (Int64.of_int (Tid.to_int pred))
end
