/* Slicing-by-8 CRC-32 (IEEE 802.3 polynomial, reflected; Kounavis &
   Berry, ISCC 2005) for Crc32.update. Eight bytes per step through eight
   256-entry tables; the words are assembled from byte loads, so the code
   needs no aligned or unaligned word reads and is endian-neutral. The
   OCaml side checks the range and builds the tables once at start-up. */

#include <stdint.h>
#include <stddef.h>
#include <caml/mlvalues.h>

static uint32_t crc_table[8][256];

CAMLprim value sias_crc32_init_tables(value unit)
{
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_table[0][n] = c;
  }
  for (int t = 1; t < 8; t++)
    for (int n = 0; n < 256; n++)
      crc_table[t][n] = (crc_table[t - 1][n] >> 8)
                        ^ crc_table[0][crc_table[t - 1][n] & 0xFF];
  return unit;
}

/* noalloc: no GC can run, so the bytes pointer stays valid throughout. */
CAMLprim value sias_crc32_update(value crc, value buf, value pos, value len)
{
  uint32_t c = (uint32_t)Long_val(crc);
  const unsigned char *p = Bytes_val(buf) + Long_val(pos);
  size_t n = (size_t)Long_val(len);
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = c ^ ((uint32_t)p[0] | (uint32_t)p[1] << 8
                       | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24);
    c = crc_table[7][lo & 0xFF] ^ crc_table[6][(lo >> 8) & 0xFF]
        ^ crc_table[5][(lo >> 16) & 0xFF] ^ crc_table[4][lo >> 24]
        ^ crc_table[3][p[4]] ^ crc_table[2][p[5]]
        ^ crc_table[1][p[6]] ^ crc_table[0][p[7]];
  }
  for (; n > 0; p++, n--)
    c = crc_table[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return Val_long(c);
}
