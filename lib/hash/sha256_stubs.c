/* SHA-256 block compression with the x86 SHA extensions (SHA-NI).

   [fb_sha256_native_available] reports whether CPUID advertises SHA, SSE4.1
   and SSSE3; [fb_sha256_native_blocks] compresses [n] consecutive 64-byte
   blocks into the eight-word [int array] state that lib/hash/sha256.ml keeps.
   The kernel is compiled with a per-function target attribute, so the rest of
   the build needs no -msha; it is only ever called after the CPUID check.  On
   other compilers and architectures the check answers false and the block
   entry point is never reached. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

/* Four rounds on message group [i] (rounds 4i..4i+3) held in [cur], with the
   schedule advanced alongside: [sha256msg2] finishes group i+1 (in [next])
   from groups i-1 ([prev]) and i, and [sha256msg1] starts group i+3 in the
   register [prev] frees. */
#define ROUNDS4(i, cur, prev, next)                                          \
  do {                                                                       \
    __m128i t =                                                              \
        _mm_add_epi32(cur, _mm_loadu_si128((const __m128i *)&K[4 * (i)]));   \
    s1 = _mm_sha256rnds2_epu32(s1, s0, t);                                   \
    if ((i) >= 3 && (i) <= 14)                                               \
      next = _mm_sha256msg2_epu32(                                           \
          _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur);          \
    s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(t, 0x0E));          \
    if ((i) >= 1 && (i) <= 12) prev = _mm_sha256msg1_epu32(prev, cur);       \
  } while (0)

__attribute__((target("sha,sse4.1,ssse3")))
static void sha256_ni_blocks(uint32_t st[8], const unsigned char *p, long n)
{
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  /* The rounds instruction wants the state as ABEF / CDGH. */
  __m128i abcd = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[0]), 0xB1);
  __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[4]), 0x1B);
  __m128i s0 = _mm_alignr_epi8(abcd, efgh, 8);
  __m128i s1 = _mm_blend_epi16(efgh, abcd, 0xF0);

  for (; n > 0; n--, p += 64) {
    __m128i save0 = s0, save1 = s1;
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    ROUNDS4(0, m0, m3, m1);
    ROUNDS4(1, m1, m0, m2);
    ROUNDS4(2, m2, m1, m3);
    ROUNDS4(3, m3, m2, m0);
    ROUNDS4(4, m0, m3, m1);
    ROUNDS4(5, m1, m0, m2);
    ROUNDS4(6, m2, m1, m3);
    ROUNDS4(7, m3, m2, m0);
    ROUNDS4(8, m0, m3, m1);
    ROUNDS4(9, m1, m0, m2);
    ROUNDS4(10, m2, m1, m3);
    ROUNDS4(11, m3, m2, m0);
    ROUNDS4(12, m0, m3, m1);
    ROUNDS4(13, m1, m0, m2);
    ROUNDS4(14, m2, m1, m3);
    ROUNDS4(15, m3, m2, m0);
    s0 = _mm_add_epi32(s0, save0);
    s1 = _mm_add_epi32(s1, save1);
  }

  __m128i feba = _mm_shuffle_epi32(s0, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(s1, 0xB1);
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(dchg, feba, 8));
}

static int cpu_has_sha_ni(void)
{
  unsigned a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b & (1u << 29)) != 0; /* CPUID.(EAX=7,ECX=0):EBX.SHA */
}

value fb_sha256_native_available(value unit)
{
  (void)unit;
  return Val_bool(cpu_has_sha_ni());
}

/* [h] holds eight canonical 32-bit words as OCaml immediates, so writing them
   back needs no write barrier; [n] blocks start at byte [pos] of [b]. */
value fb_sha256_native_blocks(value h, value b, value pos, value n)
{
  uint32_t st[8];
  for (int i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
  sha256_ni_blocks(st, Bytes_val(b) + Long_val(pos), Long_val(n));
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(st[i]);
  return Val_unit;
}

#else

value fb_sha256_native_available(value unit)
{
  (void)unit;
  return Val_false;
}

value fb_sha256_native_blocks(value h, value b, value pos, value n)
{
  (void)h; (void)b; (void)pos; (void)n;
  return Val_unit;
}

#endif
