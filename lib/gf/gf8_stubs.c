/* GF(2^8) region multiply: dst = alpha*src, or dst ^= alpha*src.

   Split-nibble method (Plank, Greenan, Miller, FAST 2013): for a byte
   s = lo + (hi << 4), alpha*s = alpha*lo XOR alpha*(hi << 4), so two
   16-entry tables cover every product.  The caller passes those tables
   for one alpha as 32 bytes, [alpha*x for x < 16] followed by
   [alpha*(x << 4) for x < 16]; this file knows nothing about the field.

   On x86-64 CPUs with SSSE3 each 16-entry table fits one register and
   [pshufb] does 16 lookups per instruction.  Everywhere else, and for
   the last len mod 16 bytes, a portable byte loop reads the same
   tables.  The path is chosen once, by [ecs_gf8_select], before any
   OCaml code can call a kernel.

   No bounds checks: the OCaml callers check that src and dst have the
   same length and pass that length. */

#include <stddef.h>
#include <stdint.h>

#include <caml/mlvalues.h>

#if defined(__x86_64__)
#include <tmmintrin.h>
#endif

typedef void (*region_fn)(const uint8_t *tbl, const uint8_t *src,
                          uint8_t *dst, size_t len, int acc);

static void region_portable(const uint8_t *tbl, const uint8_t *src,
                            uint8_t *dst, size_t len, int acc)
{
  for (size_t i = 0; i < len; i++) {
    uint8_t s = src[i];
    uint8_t p = tbl[s & 0x0f] ^ tbl[16 + (s >> 4)];
    dst[i] = acc ? dst[i] ^ p : p;
  }
}

#if defined(__x86_64__)
__attribute__((target("ssse3")))
static void region_ssse3(const uint8_t *tbl, const uint8_t *src,
                         uint8_t *dst, size_t len, int acc)
{
  const __m128i lo = _mm_loadu_si128((const __m128i *)tbl);
  const __m128i hi = _mm_loadu_si128((const __m128i *)(tbl + 16));
  const __m128i mask = _mm_set1_epi8(0x0f);
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    __m128i s = _mm_loadu_si128((const __m128i *)(src + i));
    __m128i p = _mm_xor_si128(
        _mm_shuffle_epi8(lo, _mm_and_si128(s, mask)),
        _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask)));
    if (acc) p = _mm_xor_si128(p, _mm_loadu_si128((const __m128i *)(dst + i)));
    _mm_storeu_si128((__m128i *)(dst + i), p);
  }
  region_portable(tbl, src + i, dst + i, len - i, acc);
}
#endif

/* Written once by [ecs_gf8_select] at module initialisation, before
   any domain is spawned; read-only afterwards. */
static region_fn region = region_portable;

/* Picks the region kernel for this CPU; true when it is the SSSE3 one. */
value ecs_gf8_select(value unit)
{
  (void)unit;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("ssse3")) {
    region = region_ssse3;
    return Val_true;
  }
#endif
  return Val_false;
}

value ecs_gf8_region(value tbl, value src, value dst, intnat len, value acc)
{
  region((const uint8_t *)String_val(tbl), (const uint8_t *)Bytes_val(src),
         (uint8_t *)Bytes_val(dst), (size_t)len, Bool_val(acc));
  return Val_unit;
}

value ecs_gf8_region_byte(value tbl, value src, value dst, value len,
                          value acc)
{
  return ecs_gf8_region(tbl, src, dst, Long_val(len), acc);
}
