(* The SIAS-V record walker against a reference codec. The store reads
   and writes encoded vectors in place (walk by offset, splice, copy a
   live prefix); here a small whole-vector decoder/encoder, written from
   the layout alone, is the oracle every in-place operation must agree
   with byte for byte. *)

module Vector = Mvcc.Vector
module Value = Mvcc.Value
module Tid = Sias_storage.Tid

(* ---------------- reference codec ----------------

   [0..7] vid, [8..9] count, [10..17] overflow tid + 1 (0 = none), then
   per version newest first: create int64, seq u32, flags u8 (bit 0
   tombstone, bits 1-2 hint), row_len u32, row bytes. *)

type version = {
  create : int;
  seq : int;
  tombstone : bool;
  hint : int;
  flags_off : int; (* where decoding found the flags byte; -1 if fresh *)
  row : Value.t array;
}

type vector = { vid : int; overflow : Tid.t; versions : version list }

let encode v =
  let buf = Buffer.create 256 in
  Buffer.add_int64_le buf (Int64.of_int v.vid);
  Buffer.add_uint16_le buf (List.length v.versions);
  Buffer.add_int64_le buf
    (Int64.of_int (if Tid.is_invalid v.overflow then 0 else Tid.to_int v.overflow + 1));
  List.iter
    (fun r ->
      Buffer.add_int64_le buf (Int64.of_int r.create);
      Buffer.add_int32_le buf (Int32.of_int r.seq);
      Buffer.add_uint8 buf ((if r.tombstone then 1 else 0) lor (r.hint lsl 1));
      let row = Value.encode_row r.row in
      Buffer.add_int32_le buf (Int32.of_int (Bytes.length row));
      Buffer.add_bytes buf row)
    v.versions;
  Buffer.to_bytes buf

let decode b =
  let n = Bytes.get_uint16_le b 8 in
  let ov = Int64.to_int (Bytes.get_int64_le b 10) in
  let rec go i pos acc =
    if i = n then List.rev acc
    else
      let flags = Bytes.get_uint8 b (pos + 12) in
      let len = Int32.to_int (Bytes.get_int32_le b (pos + 13)) in
      let r =
        {
          create = Int64.to_int (Bytes.get_int64_le b pos);
          seq = Int32.to_int (Bytes.get_int32_le b (pos + 8));
          tombstone = flags land 1 = 1;
          hint = (flags lsr 1) land 3;
          flags_off = pos + 12;
          row = Value.decode_row b ~pos:(pos + 17);
        }
      in
      go (i + 1) (pos + 17 + len) (r :: acc)
  in
  {
    vid = Int64.to_int (Bytes.get_int64_le b 0);
    overflow = (if ov = 0 then Tid.invalid else Tid.of_int (ov - 1));
    versions = go 0 18 [];
  }

(* ---------------- generators ---------------- *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 12));
        return (Value.Str "");
      ])

let gen_row = QCheck.Gen.(map Array.of_list (list_size (int_range 0 5) gen_value))

let gen_version =
  QCheck.Gen.(
    map
      (fun (((create, seq), (tombstone, hint)), row) ->
        { create; seq; tombstone; hint; flags_off = -1; row })
      (pair
         (pair (pair (int_range 1 1_000_000) (int_range 0 10_000)) (pair bool (int_range 0 2)))
         gen_row))

let gen_vector =
  QCheck.Gen.(
    map
      (fun ((vid, overflow), versions) ->
        {
          vid;
          overflow =
            (match overflow with
            | None -> Tid.invalid
            | Some (block, slot) -> Tid.make ~block ~slot);
          versions;
        })
      (pair
         (pair (int_range 0 100_000) (opt (pair (int_range 0 50_000) (int_range 0 200))))
         (list_size (int_range 1 4) gen_version)))

let print_vector v =
  Printf.sprintf "{vid=%d; overflow=%d; versions=[%s]}" v.vid
    (if Tid.is_invalid v.overflow then -1 else Tid.to_int v.overflow)
    (String.concat "; "
       (List.map
          (fun r ->
            Format.asprintf "(%d,%d,%b,%d,%a)" r.create r.seq r.tombstone r.hint Value.pp_row
              r.row)
          v.versions))

let arb_vector = QCheck.make ~print:print_vector gen_vector

let rows_equal a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> Value.compare x y = 0) a b

(* ---------------- properties ---------------- *)

let qcheck_walk =
  QCheck.Test.make ~name:"walker reads every record as the reference decoder" ~count:300
    arb_vector (fun v ->
      let b = encode v in
      let reference = (decode b).versions in
      let offs = List.rev (Vector.fold b (fun acc p -> p :: acc) []) in
      Vector.count b = List.length reference
      && Vector.item_vid b = v.vid
      && Tid.equal (Vector.older b) v.overflow
      && List.for_all2
           (fun p r ->
             Vector.flags_off p = r.flags_off
             && Vector.create b p = r.create
             && Vector.seq b p = r.seq
             && Vector.tombstone b p = r.tombstone
             && Vector.hint b p = r.hint
             && rows_equal (Vector.row_at b p) r.row)
           offs reference
      && Vector.stamps b = List.map (fun r -> (r.create, r.seq)) reference)

let qcheck_splice =
  QCheck.Test.make ~name:"splice equals re-encoding with the version prepended" ~count:300
    (QCheck.pair arb_vector (QCheck.make gen_version))
    (fun (v, fresh) ->
      let fresh = { fresh with hint = 0 } in
      let spliced =
        Vector.splice (encode v)
          (Vector.record ~create:fresh.create ~seq:fresh.seq ~tombstone:fresh.tombstone
             (Value.encode_row fresh.row))
      in
      let reference = decode (encode v) in
      Bytes.equal spliced (encode { reference with versions = fresh :: reference.versions }))

let qcheck_prefix =
  QCheck.Test.make ~name:"live-prefix copy equals encoding that prefix" ~count:300
    QCheck.(pair (make QCheck.Gen.(list_size (int_range 1 3) gen_vector)) small_nat)
    (fun (chain, k) ->
      let items = List.map encode chain in
      let all = List.concat_map (fun b -> (decode b).versions) items in
      let n = 1 + (k mod List.length all) in
      let vid = (List.hd chain).vid in
      Bytes.equal (Vector.prefix ~vid items n)
        (encode
           { vid; overflow = Tid.invalid; versions = List.filteri (fun i _ -> i < n) all }))

let suite = List.map QCheck_alcotest.to_alcotest [ qcheck_walk; qcheck_splice; qcheck_prefix ]
