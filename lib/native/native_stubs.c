/* The C side of lib/native: the probe kernel behind Int_scan.first and
   the worker word behind Native_pool.current_domain. Each native entry
   point is a [@@noalloc] external, so none touches the OCaml heap; the
   [_byte] wrappers serve bytecode. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define O2_VECTOR 1
#include <immintrin.h>
#endif

/* ------------------------------------------------------------------ */
/* The probe kernel                                                    */

/* An int array holds tagged words (2n+1), and tagging is injective, so
   comparing the tagged key with the tagged words gives the same answer
   as comparing the ints: no word is untagged. */

#ifdef O2_VECTOR

/* Chosen once, when the program is loaded; nothing else selects the
   path. */
static int has_avx2;

__attribute__((constructor)) static void o2_native_pick_kernel(void)
{
  __builtin_cpu_init();
  has_avx2 = __builtin_cpu_supports("avx2");
}

/* Full 8-word blocks of [lo, stop), where [stop - lo] is a multiple of
   8. A group of up to 8 blocks (64 words) is compared with no branch
   per block: each block's two 4-lane compares become 8 mask bits at the
   block's offset in the group, and one [ctz] of the group's mask gives
   the first match. Only the group's end tests the mask.

   This function alone is compiled for AVX2, and it runs only when the
   CPU has it: a scalar loop in a function built for AVX2 may itself be
   given VEX encodings, so the scalar path lives in the caller. */
__attribute__((target("avx2"), noinline)) static intnat
o2_scan_blocks(const value *p, intnat lo, intnat stop, value key)
{
  const __m256i k = _mm256_set1_epi64x((long long)key);
  for (intnat g = lo; g < stop; g += 64) {
    intnat end = stop - g < 64 ? stop : g + 64;
    uint64_t mask = 0;
    for (intnat i = g; i + 8 <= end; i += 8) {
      __m256i a0 = _mm256_loadu_si256((const __m256i *)(p + i));
      __m256i a1 = _mm256_loadu_si256((const __m256i *)(p + i + 4));
      uint64_t m0 = (unsigned)_mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(a0, k)));
      uint64_t m1 = (unsigned)_mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(a1, k)));
      mask |= (m0 | m1 << 4) << (i - g);
    }
    if (mask != 0) return g + __builtin_ctzll(mask);
  }
  return -1;
}

#endif

/* The least i in [lo, hi) with a[i] = key, or -1. The caller has
   checked 0 <= lo <= hi <= length a; nothing outside [lo, hi) is read.
   With [vector] the blocks take every full 8 words from [lo] and the
   scalar loop below the last 0-7; without it the same loop is the
   whole scan. Inlined into both entry points, so [vector] is a
   constant in the scalar one. */
static inline __attribute__((always_inline)) intnat
o2_scan(value a, intnat lo, intnat hi, value key, int vector)
{
  const value *p = (const value *)a;
  intnat i = lo;
#ifdef O2_VECTOR
  if (vector) {
    i = hi - ((hi - lo) & 7);
    intnat r = o2_scan_blocks(p, lo, i, key);
    if (r >= 0) return r;
  }
#else
  (void)vector;
#endif
  for (; i < hi; i++)
    if (p[i] == key) return i;
  return -1;
}

intnat o2_int_scan_first(value a, intnat lo, intnat hi, value key)
{
#ifdef O2_VECTOR
  return o2_scan(a, lo, hi, key, has_avx2);
#else
  return o2_scan(a, lo, hi, key, 0);
#endif
}

value o2_int_scan_first_byte(value a, value lo, value hi, value key)
{
  return Val_long(o2_int_scan_first(a, Long_val(lo), Long_val(hi), key));
}

/* The path a host without AVX2 runs, on any host: the scalar loop over
   the whole range. Only the tests call it. */
intnat o2_int_scan_first_scalar(value a, intnat lo, intnat hi, value key)
{
  return o2_scan(a, lo, hi, key, 0);
}

value o2_int_scan_first_scalar_byte(value a, value lo, value hi, value key)
{
  return Val_long(
      o2_int_scan_first_scalar(a, Long_val(lo), Long_val(hi), key));
}

/* ------------------------------------------------------------------ */
/* The worker word                                                     */

/* One word per system thread: a pool worker's is its pool's tag (a
   serial shifted past the index bits) plus its index, set once when the
   worker starts; every other thread's stays 0, which no pool's tag
   matches. Initial-exec: a read is one %fs-relative load. */
static __thread intnat worker_word __attribute__((tls_model("initial-exec")));

intnat o2_native_worker_word(value unit)
{
  (void)unit;
  return worker_word;
}

value o2_native_worker_word_byte(value unit)
{
  return Val_long(o2_native_worker_word(unit));
}

value o2_native_set_worker_word(value w)
{
  worker_word = Long_val(w);
  return Val_unit;
}
