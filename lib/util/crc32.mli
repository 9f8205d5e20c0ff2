(** CRC-32 (IEEE 802.3 polynomial, reflected) for on-disk integrity
    checks: page images and WAL records. Computed slicing-by-8, eight
    bytes per step (Kounavis & Berry, ISCC 2005). Slicing changes only
    the speed: the values are the standard CRC-32
    ([bytes "123456789" = 0xCBF43926]), so every stored page checksum and
    WAL record CRC is unchanged. Streaming API for checksumming
    discontiguous ranges (a page minus its own checksum field). *)

val init : int
(** Initial accumulator state. *)

val update : int -> bytes -> pos:int -> len:int -> int
(** Fold a byte range into the accumulator. Allocates nothing.
    @raise Invalid_argument if [pos]/[len] do not name a range of [buf]. *)

val finish : int -> int
(** Final xor; the value is in [0, 2^32). *)

val digest : bytes -> pos:int -> len:int -> int
(** [finish (update init buf ~pos ~len)]. *)

val bytes : bytes -> int
(** Digest of a whole buffer. *)
