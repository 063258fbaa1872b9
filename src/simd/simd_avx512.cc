/**
 * @file
 * AVX-512F kernel table (8 lanes of 64-bit). Compiled with a per-file
 * `-mavx512f`; only reached through the runtime dispatcher. The kernels
 * are vector_kernels.h's over Avx512Lanes; this file holds the lane
 * primitives and the in-register NTT stages on 16-coefficient chunks.
 * Against AVX2 the wins are twice the lane count and native unsigned
 * 64-bit compares into mask registers (no sign-bias tricks for carries
 * or conditional subtracts).
 */

#include <immintrin.h>

#include "simd/vector_kernels.h"

namespace heat::simd::detail {

namespace {

/** Eight 64-bit lanes. */
struct Avx512Lanes
{
    using Reg = __m512i;
    static constexpr size_t kLanes = 8;

    static Reg load(const uint64_t *p) { return _mm512_loadu_si512(p); }
    static void store(uint64_t *p, Reg x) { _mm512_storeu_si512(p, x); }
    static Reg
    set1(uint64_t x)
    {
        return _mm512_set1_epi64(static_cast<long long>(x));
    }
    static Reg add(Reg a, Reg b) { return _mm512_add_epi64(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm512_sub_epi64(a, b); }
    static Reg mul32(Reg a, Reg b) { return _mm512_mul_epu32(a, b); }
    static Reg srl32(Reg a) { return _mm512_srli_epi64(a, 32); }
    static Reg
    srl(Reg a, int s)
    {
        return _mm512_srl_epi64(a, _mm_cvtsi32_si128(s));
    }
    static Reg lo32(Reg a) { return _mm512_and_epi64(a, set1(0xffffffffu)); }
    static Reg
    csub(Reg x, Reg k)
    {
        const __mmask8 ge = _mm512_cmpge_epu64_mask(x, k);
        return _mm512_mask_sub_epi64(x, ge, x, k);
    }
    static Reg
    subMod(Reg a, Reg b, Reg q)
    {
        const __mmask8 lt = _mm512_cmplt_epu64_mask(a, b);
        const Reg d = _mm512_sub_epi64(a, b);
        return _mm512_mask_add_epi64(d, lt, d, q);
    }
    static Reg
    negMod(Reg a, Reg q)
    {
        const __mmask8 nz = _mm512_test_epi64_mask(a, a);
        return _mm512_maskz_sub_epi64(nz, q, a);
    }
    // permutexvar reads the low three bits of each index.
    static Reg
    permute(Reg x, const uint32_t *idx)
    {
        const __m512i i = _mm512_cvtepu32_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(idx)));
        return _mm512_permutexvar_epi64(i, x);
    }
};

using Avx512Ntt = Ntt<Avx512Lanes>;

/**
 * The twiddles from i selected by @p mask, lane k taking twiddle
 * i + spread[k]: one contiguous load per table, no gather.
 */
inline Avx512Ntt::Twiddle
spreadTwiddles(const uint64_t *w, const uint64_t *w_shoup, size_t i,
               __mmask8 mask, __m512i spread)
{
    const __m512i vw = _mm512_maskz_loadu_epi64(mask, w + i);
    const __m512i vs = _mm512_maskz_loadu_epi64(mask, w_shoup + i);
    return {_mm512_permutexvar_epi64(spread, vw),
            _mm512_srli_epi64(_mm512_permutexvar_epi64(spread, vs), 32)};
}

/**
 * Lane shuffles of the in-register stages. A 16-coefficient chunk
 * lives in two vectors (x, y), lane k of each holding one butterfly's
 * operands. Going from stage t to stage t/2 regroups both with one
 * permutex2var each (index e < 8 picks x[e], e >= 8 picks y[e - 8]);
 * every such pair is its own inverse, so the inverse tail runs the
 * same three backwards.
 */
struct TailShuffles
{
    // Stage 8 <-> stage 4.
    const __m512i t4_x = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    const __m512i t4_y = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
    // Stage 4 <-> stage 2.
    const __m512i t2_x = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i t2_y = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    // Stage 2 <-> stage 1.
    const __m512i t1_x = _mm512_setr_epi64(0, 8, 2, 10, 4, 12, 6, 14);
    const __m512i t1_y = _mm512_setr_epi64(1, 9, 3, 11, 5, 13, 7, 15);
    // Natural order -> stage 1 (evens, odds) and back.
    const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    const __m512i low = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i high = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    // Twiddle spreads for stage 4 (two per chunk) and stage 2 (four).
    const __m512i spread2 = _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1);
    const __m512i spread4 = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
};

/** (x, y) <- (permute(x, y, ix), permute(x, y, iy)). */
inline void
regroup(__m512i &x, __m512i &y, __m512i ix, __m512i iy)
{
    const __m512i nx = _mm512_permutex2var_epi64(x, ix, y);
    y = _mm512_permutex2var_epi64(x, iy, y);
    x = nx;
}

} // namespace

/** Stages t = 8, 4, 2, 1 (forward) and 1, 2, 4, 8 (inverse). */
template <>
struct NttTail<Avx512Lanes>
{
    static void
    forward(uint64_t *a, size_t n, const uint64_t *w,
            const uint64_t *w_shoup, const Avx512Ntt::ModulusLanes &m)
    {
        const TailShuffles s;
        for (size_t c = 0; c < n; c += 16) {
            __m512i x = Avx512Lanes::load(a + c);
            __m512i y = Avx512Lanes::load(a + c + 8);
            Avx512Ntt::forwardButterfly(
                x, y, Avx512Ntt::broadcastTwiddle(w, w_shoup, (n + c) / 16),
                m);
            regroup(x, y, s.t4_x, s.t4_y);
            Avx512Ntt::forwardButterfly(
                x, y,
                spreadTwiddles(w, w_shoup, (n + c) / 8, 0x03, s.spread2), m);
            regroup(x, y, s.t2_x, s.t2_y);
            Avx512Ntt::forwardButterfly(
                x, y,
                spreadTwiddles(w, w_shoup, (n + c) / 4, 0x0f, s.spread4), m);
            regroup(x, y, s.t1_x, s.t1_y);
            Avx512Ntt::forwardButterfly(
                x, y, Avx512Ntt::loadTwiddles(w, w_shoup, (n + c) / 2), m);
            x = Avx512Ntt::canonical(x, m);
            y = Avx512Ntt::canonical(y, m);
            Avx512Lanes::store(a + c, _mm512_permutex2var_epi64(x, s.low, y));
            Avx512Lanes::store(a + c + 8,
                               _mm512_permutex2var_epi64(x, s.high, y));
        }
    }

    static void
    inverse(uint64_t *a, size_t n, const uint64_t *w,
            const uint64_t *w_shoup, const Avx512Ntt::ModulusLanes &m,
            const Avx512Ntt::FinalScale *last)
    {
        const TailShuffles s;
        for (size_t c = 0; c < n; c += 16) {
            const __m512i lo = Avx512Lanes::load(a + c);
            const __m512i hi = Avx512Lanes::load(a + c + 8);
            __m512i x = _mm512_permutex2var_epi64(lo, s.even, hi);
            __m512i y = _mm512_permutex2var_epi64(lo, s.odd, hi);
            Avx512Ntt::inverseButterfly(
                x, y, Avx512Ntt::loadTwiddles(w, w_shoup, (n + c) / 2), m);
            regroup(x, y, s.t1_x, s.t1_y);
            Avx512Ntt::inverseButterfly(
                x, y,
                spreadTwiddles(w, w_shoup, (n + c) / 4, 0x0f, s.spread4), m);
            regroup(x, y, s.t2_x, s.t2_y);
            Avx512Ntt::inverseButterfly(
                x, y,
                spreadTwiddles(w, w_shoup, (n + c) / 8, 0x03, s.spread2), m);
            regroup(x, y, s.t4_x, s.t4_y);
            if (last)
                Avx512Ntt::inverseButterflyScaled(x, y, *last, m);
            else
                Avx512Ntt::inverseButterfly(
                    x, y,
                    Avx512Ntt::broadcastTwiddle(w, w_shoup, (n + c) / 16), m);
            Avx512Lanes::store(a + c, x);
            Avx512Lanes::store(a + c + 8, y);
        }
    }
};

const Kernels &
avx512Kernels()
{
    static const Kernels table = vectorKernels<Avx512Lanes>(Level::kAvx512);
    return table;
}

} // namespace heat::simd::detail
