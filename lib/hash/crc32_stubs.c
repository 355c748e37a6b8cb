/* CRC-32 (reflected polynomial 0xEDB88320, the zlib/gzip CRC) by
   slice-by-8: eight 256-entry tables fold eight input bytes per step.

   [fb_crc32_init] fills the tables; lib/hash/crc32.ml calls it once when the
   module is initialised, before any [fb_crc32_update].  The kernel reads its
   input one byte at a time and assembles the little-endian words itself, so
   it needs no alignment and gives the same answer on every byte order.
   [fb_crc32_update] trusts its range: crc32.ml checks [pos]/[len] against the
   buffer before calling it. */

#include <stddef.h>
#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t table[8][256];

value fb_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[0][n] = c;
  }
  for (int t = 1; t < 8; t++)
    for (int n = 0; n < 256; n++) {
      uint32_t c = table[t - 1][n];
      table[t][n] = (c >> 8) ^ table[0][c & 0xff];
    }
  return Val_unit;
}

static uint32_t crc32_slice8(uint32_t c, const unsigned char *p, size_t n)
{
  for (; n >= 8; n -= 8, p += 8) {
    uint32_t lo = c ^ ((uint32_t)p[0] | (uint32_t)p[1] << 8
                       | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24);
    uint32_t hi = (uint32_t)p[4] | (uint32_t)p[5] << 8
                  | (uint32_t)p[6] << 16 | (uint32_t)p[7] << 24;
    c = table[7][lo & 0xff] ^ table[6][(lo >> 8) & 0xff]
        ^ table[5][(lo >> 16) & 0xff] ^ table[4][lo >> 24]
        ^ table[3][hi & 0xff] ^ table[2][(hi >> 8) & 0xff]
        ^ table[1][(hi >> 16) & 0xff] ^ table[0][hi >> 24];
  }
  for (; n > 0; n--, p++) c = table[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c;
}

/* [crc] is a finished digest (the low 32 bits of an OCaml int); the
   pre/post inversion happens here so the loop works on the raw state. */
value fb_crc32_update(value crc, value b, value pos, value len)
{
  uint32_t c = ~(uint32_t)Long_val(crc);
  c = crc32_slice8(c, Bytes_val(b) + Long_val(pos), (size_t)Long_val(len));
  return Val_long((uint32_t)~c);
}
