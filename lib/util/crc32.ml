(* CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8 in
   crc32_stubs.c. Used for page and WAL-record checksums; the value fits
   OCaml's native int. *)

external init_tables : unit -> unit = "sias_crc32_init_tables"

(* Module initialisation runs before any domain is spawned, so the tables
   are written once and only read afterwards. *)
let () = init_tables ()

external update_unchecked : int -> bytes -> int -> int -> int = "sias_crc32_update"
[@@noalloc]

let init = 0xFFFFFFFF

(* [pos > length - len] rather than [pos + len > length]: the sum can
   overflow, and the stub reads whatever range it is given. *)
let update crc buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Crc32.update: range out of bounds";
  update_unchecked crc buf pos len

let finish crc = crc lxor 0xFFFFFFFF

let digest buf ~pos ~len = finish (update init buf ~pos ~len)

let bytes buf = digest buf ~pos:0 ~len:(Bytes.length buf)
