/**
 * @file
 * AVX2 kernel table (4 lanes of 64-bit). Compiled with a per-file
 * `-mavx2`; only reached through the runtime dispatcher. The kernels
 * are vector_kernels.h's over Avx2Lanes; this file holds the lane
 * primitives and the in-register NTT stages on 8-coefficient chunks.
 */

#include <immintrin.h>

#include "simd/vector_kernels.h"

namespace heat::simd::detail {

namespace {

/** Four 64-bit lanes. */
struct Avx2Lanes
{
    using Reg = __m256i;
    static constexpr size_t kLanes = 4;

    static Reg
    load(const uint64_t *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }
    static void
    store(uint64_t *p, Reg x)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), x);
    }
    static Reg
    set1(uint64_t x)
    {
        return _mm256_set1_epi64x(static_cast<long long>(x));
    }
    static Reg add(Reg a, Reg b) { return _mm256_add_epi64(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm256_sub_epi64(a, b); }
    static Reg mul32(Reg a, Reg b) { return _mm256_mul_epu32(a, b); }
    static Reg srl32(Reg a) { return _mm256_srli_epi64(a, 32); }
    static Reg
    srl(Reg a, int s)
    {
        return _mm256_srl_epi64(a, _mm_cvtsi32_si128(s));
    }
    static Reg lo32(Reg a) { return _mm256_and_si256(a, set1(0xffffffffu)); }

    // AVX2 compares 64-bit lanes signed only: valid below 2^63.
    static Reg
    csub(Reg x, Reg k)
    {
        const Reg lt = _mm256_cmpgt_epi64(k, x);
        return _mm256_sub_epi64(x, _mm256_andnot_si256(lt, k));
    }
    static Reg
    subMod(Reg a, Reg b, Reg q)
    {
        const Reg lt = _mm256_cmpgt_epi64(b, a);
        return _mm256_add_epi64(_mm256_sub_epi64(a, b),
                                _mm256_and_si256(lt, q));
    }
    static Reg
    negMod(Reg a, Reg q)
    {
        const Reg zero = _mm256_cmpeq_epi64(a, _mm256_setzero_si256());
        return _mm256_andnot_si256(zero, _mm256_sub_epi64(q, a));
    }
};

using Avx2Ntt = Ntt<Avx2Lanes>;

// Lane shuffles of the in-register stages. An 8-coefficient chunk
// lives in two vectors (x, y), lane k of each holding one butterfly's
// operands. Both regroupings are their own inverse: natural order
// ([0..3], [4..7], stage 4) <-swapHalves-> stage 2 ([0 1 4 5],
// [2 3 6 7]) <-interleave-> stage 1 ([0 2 4 6], [1 3 5 7]).

inline void
swapHalves(__m256i &x, __m256i &y)
{
    const __m256i nx = _mm256_permute2x128_si256(x, y, 0x20);
    y = _mm256_permute2x128_si256(x, y, 0x31);
    x = nx;
}

inline void
interleave(__m256i &x, __m256i &y)
{
    const __m256i nx = _mm256_unpacklo_epi64(x, y);
    y = _mm256_unpackhi_epi64(x, y);
    x = nx;
}

/** p[0] in lanes 0-1, p[1] in lanes 2-3. */
inline __m256i
spreadPair(const uint64_t *p)
{
    const __m128i pair = _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    return _mm256_permute4x64_epi64(_mm256_castsi128_si256(pair),
                                    _MM_SHUFFLE(1, 1, 0, 0));
}

/** Twiddle i in lanes 0-1, i + 1 in lanes 2-3. */
inline Avx2Ntt::Twiddle
spreadTwiddles(const uint64_t *w, const uint64_t *w_shoup, size_t i)
{
    return {spreadPair(w + i),
            _mm256_srli_epi64(spreadPair(w_shoup + i), 32)};
}

} // namespace

/** Stages t = 4, 2, 1 (forward) and 1, 2, 4 (inverse). */
template <>
struct NttTail<Avx2Lanes>
{
    static void
    forward(uint64_t *a, size_t n, const uint64_t *w,
            const uint64_t *w_shoup, const Avx2Ntt::ModulusLanes &m)
    {
        for (size_t c = 0; c < n; c += 8) {
            __m256i x = Avx2Lanes::load(a + c);
            __m256i y = Avx2Lanes::load(a + c + 4);
            Avx2Ntt::forwardButterfly(
                x, y, Avx2Ntt::broadcastTwiddle(w, w_shoup, (n + c) / 8), m);
            swapHalves(x, y);
            Avx2Ntt::forwardButterfly(
                x, y, spreadTwiddles(w, w_shoup, (n + c) / 4), m);
            interleave(x, y);
            Avx2Ntt::forwardButterfly(
                x, y, Avx2Ntt::loadTwiddles(w, w_shoup, (n + c) / 2), m);
            x = Avx2Ntt::canonical(x, m);
            y = Avx2Ntt::canonical(y, m);
            interleave(x, y);
            swapHalves(x, y);
            Avx2Lanes::store(a + c, x);
            Avx2Lanes::store(a + c + 4, y);
        }
    }

    static void
    inverse(uint64_t *a, size_t n, const uint64_t *w,
            const uint64_t *w_shoup, const Avx2Ntt::ModulusLanes &m,
            const Avx2Ntt::FinalScale *last)
    {
        for (size_t c = 0; c < n; c += 8) {
            __m256i x = Avx2Lanes::load(a + c);
            __m256i y = Avx2Lanes::load(a + c + 4);
            swapHalves(x, y);
            interleave(x, y);
            Avx2Ntt::inverseButterfly(
                x, y, Avx2Ntt::loadTwiddles(w, w_shoup, (n + c) / 2), m);
            interleave(x, y);
            Avx2Ntt::inverseButterfly(
                x, y, spreadTwiddles(w, w_shoup, (n + c) / 4), m);
            swapHalves(x, y);
            if (last)
                Avx2Ntt::inverseButterflyScaled(x, y, *last, m);
            else
                Avx2Ntt::inverseButterfly(
                    x, y, Avx2Ntt::broadcastTwiddle(w, w_shoup, (n + c) / 8),
                    m);
            Avx2Lanes::store(a + c, x);
            Avx2Lanes::store(a + c + 4, y);
        }
    }
};

const Kernels &
avx2Kernels()
{
    static const Kernels table = vectorKernels<Avx2Lanes>(Level::kAvx2);
    return table;
}

} // namespace heat::simd::detail
