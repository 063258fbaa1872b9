/**
 * @file
 * AVX2 kernel table (4 lanes of 64-bit). Compiled with a per-file
 * `-mavx2`; only reached through the runtime dispatcher.
 *
 * All multiply-based kernels use 32-bit Shoup/Harvey lazy reduction:
 * with q < 2^30 every live value fits 32 bits, so one vpmuludq gives a
 * full product and quot = floor(a * floor(w*2^32/q) / 2^32) leaves
 * r = a*w - quot*q in [0, 2q) (Harvey's bound holds for any a < 2^32,
 * w < q). The 32-bit Shoup constant is the top half of the stored
 * 64-bit one: floor(w*2^64/q) >> 32 == floor(w*2^32/q). Lazy values
 * differ from the scalar oracle's by multiples of q, but every kernel
 * normalizes its outputs, so results are bit-identical. Wider moduli
 * and sub-lane tails run the scalar bodies.
 */

#include <immintrin.h>

#include "ntt/ntt.h"
#include "ntt/ntt_tables.h"
#include "rns/modulus.h"
#include "simd/hps_kernels.h"
#include "simd/simd_internal.h"

namespace heat::simd::detail {

namespace {

inline __m256i
load(const uint64_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
store(uint64_t *p, __m256i x)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), x);
}

inline __m256i
set1(uint64_t x)
{
    return _mm256_set1_epi64x(static_cast<long long>(x));
}

/** x >= k ? x - k : x; valid for x, k < 2^63 (signed compare). */
inline __m256i
csub(__m256i x, __m256i k)
{
    const __m256i lt = _mm256_cmpgt_epi64(k, x);
    return _mm256_sub_epi64(x, _mm256_andnot_si256(lt, k));
}

/**
 * Harvey lazy Shoup: a*w - floor(a*phi/2^32)*q in [0, 2q) for
 * a < 2^32, w < q < 2^30, phi = floor(w*2^32/q).
 */
inline __m256i
mulShoupLazy32(__m256i a, __m256i w, __m256i phi, __m256i q)
{
    const __m256i quot = _mm256_srli_epi64(_mm256_mul_epu32(a, phi), 32);
    return _mm256_sub_epi64(_mm256_mul_epu32(a, w),
                            _mm256_mul_epu32(quot, q));
}

/** s mod q into [0, 2q) for s < 2^32 (Shoup with w = 1). */
inline __m256i
reduceLazyBy1(__m256i s, __m256i phi1, __m256i q)
{
    const __m256i quot = _mm256_srli_epi64(_mm256_mul_epu32(s, phi1), 32);
    return _mm256_sub_epi64(s, _mm256_mul_epu32(quot, q));
}

/** q and 2q in every lane. */
struct ModulusLanes
{
    __m256i q;
    __m256i two_q;
};

/** Per-lane twiddles with their 32-bit Shoup constants. */
struct Twiddle
{
    __m256i w;
    __m256i phi;
};

/** Twiddle i in every lane. */
inline Twiddle
broadcastTwiddle(const uint64_t *w, const uint64_t *w_shoup, size_t i)
{
    return {set1(w[i]), set1(w_shoup[i] >> 32)};
}

/** Twiddles i .. i + 3, one per lane. */
inline Twiddle
loadTwiddles(const uint64_t *w, const uint64_t *w_shoup, size_t i)
{
    return {load(w + i), _mm256_srli_epi64(load(w_shoup + i), 32)};
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
inline Twiddle
spreadTwiddles(const uint64_t *w, const uint64_t *w_shoup, size_t i)
{
    return {spreadPair(w + i),
            _mm256_srli_epi64(spreadPair(w_shoup + i), 32)};
}

/** Harvey CT butterfly: x, y in [0, 4q) -> x + wy, x - wy in [0, 4q). */
inline void
forwardButterfly(__m256i &x, __m256i &y, const Twiddle &tw,
                 const ModulusLanes &m)
{
    const __m256i u = csub(x, m.two_q);
    const __m256i v = mulShoupLazy32(y, tw.w, tw.phi, m.q);
    x = _mm256_add_epi64(u, v);
    y = _mm256_add_epi64(_mm256_sub_epi64(u, v), m.two_q);
}

/** GS butterfly: x, y in [0, 2q) -> x + y, w(x - y) in [0, 2q). */
inline void
inverseButterfly(__m256i &x, __m256i &y, const Twiddle &tw,
                 const ModulusLanes &m)
{
    const __m256i d = _mm256_add_epi64(_mm256_sub_epi64(x, y), m.two_q);
    x = csub(_mm256_add_epi64(x, y), m.two_q);
    y = mulShoupLazy32(d, tw.w, tw.phi, m.q);
}

/**
 * n^{-1} and w n^{-1} for the last inverse stage, whose one twiddle
 * w = invRootPower(1): folding the scaling into that stage's
 * butterflies saves the separate scaling pass.
 */
struct FinalScale
{
    Twiddle n_inv;
    Twiddle w_n_inv;
};

FinalScale
finalScale(const ntt::NttTables &tables)
{
    const rns::Modulus &mod = tables.modulus();
    const uint64_t wn = mod.mul(tables.invRootPower(1), tables.invDegree());
    // 32-bit Shoup constant floor(wn 2^32 / q); wn < q < 2^30.
    return {{set1(tables.invDegree()), set1(tables.invDegreeShoup() >> 32)},
            {set1(wn), set1((wn << 32) / mod.value())}};
}

/** The last GS butterfly, scaled by n^{-1}; canonical outputs. */
inline void
inverseButterflyScaled(__m256i &x, __m256i &y, const FinalScale &s,
                       const ModulusLanes &m)
{
    const __m256i d = _mm256_add_epi64(_mm256_sub_epi64(x, y), m.two_q);
    const __m256i sum = csub(_mm256_add_epi64(x, y), m.two_q);
    x = csub(mulShoupLazy32(sum, s.n_inv.w, s.n_inv.phi, m.q), m.q);
    y = csub(mulShoupLazy32(d, s.w_n_inv.w, s.w_n_inv.phi, m.q), m.q);
}

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

/** Forward stage t = n/2 (twiddle 1) as a pass of its own. */
void
forwardFirstStage(uint64_t *a, size_t n, const uint64_t *w,
                  const uint64_t *w_shoup, const ModulusLanes &m)
{
    const Twiddle tw = broadcastTwiddle(w, w_shoup, 1);
    const size_t half = n / 2;
    for (size_t j = 0; j < half; j += 4) {
        __m256i x = load(a + j);
        __m256i y = load(a + j + half);
        forwardButterfly(x, y, tw, m);
        store(a + j, x);
        store(a + j + half, y);
    }
}

/**
 * Forward stages with @p blocks and 2 @p blocks twiddle blocks
 * (t = n / 2 blocks and t/2) in one pass.
 */
void
forwardRadix4(uint64_t *a, size_t n, size_t blocks, const uint64_t *w,
              const uint64_t *w_shoup, const ModulusLanes &m)
{
    const size_t t = n / (2 * blocks);
    const size_t h = t / 2;
    for (size_t i = 0; i < blocks; ++i) {
        const Twiddle outer = broadcastTwiddle(w, w_shoup, blocks + i);
        const Twiddle lo = broadcastTwiddle(w, w_shoup, 2 * (blocks + i));
        const Twiddle hi =
            broadcastTwiddle(w, w_shoup, 2 * (blocks + i) + 1);
        uint64_t *p = a + 2 * i * t;
        for (size_t k = 0; k < h; k += 4) {
            __m256i x0 = load(p + k);
            __m256i x1 = load(p + k + h);
            __m256i x2 = load(p + k + t);
            __m256i x3 = load(p + k + t + h);
            forwardButterfly(x0, x2, outer, m);
            forwardButterfly(x1, x3, outer, m);
            forwardButterfly(x0, x1, lo, m);
            forwardButterfly(x2, x3, hi, m);
            store(p + k, x0);
            store(p + k + h, x1);
            store(p + k + t, x2);
            store(p + k + t + h, x3);
        }
    }
}

/**
 * Forward stages t = 4, 2, 1 on each 8-coefficient chunk in
 * registers, ending in the canonical store. Stage t's twiddles for
 * chunk c start at index (n + c) / 2t.
 */
void
forwardTail(uint64_t *a, size_t n, const uint64_t *w,
            const uint64_t *w_shoup, const ModulusLanes &m)
{
    for (size_t c = 0; c < n; c += 8) {
        __m256i x = load(a + c);
        __m256i y = load(a + c + 4);
        forwardButterfly(x, y, broadcastTwiddle(w, w_shoup, (n + c) / 8),
                         m);
        swapHalves(x, y);
        forwardButterfly(x, y, spreadTwiddles(w, w_shoup, (n + c) / 4), m);
        interleave(x, y);
        forwardButterfly(x, y, loadTwiddles(w, w_shoup, (n + c) / 2), m);
        x = csub(csub(x, m.two_q), m.q);
        y = csub(csub(y, m.two_q), m.q);
        interleave(x, y);
        swapHalves(x, y);
        store(a + c, x);
        store(a + c + 4, y);
    }
}

void
nttForwardAvx2(uint64_t *a, const ntt::NttTables &tables)
{
    const uint64_t qv = tables.modulus().value();
    const size_t n = tables.degree();
    if (!eligibleModulus(qv) || n < 8) {
        ntt::forwardNttScalar({a, n}, tables);
        return;
    }
    const ModulusLanes m{set1(qv), set1(2 * qv)};
    const uint64_t *w = tables.rootPowers();
    const uint64_t *w_shoup = tables.rootPowersShoup();

    // Stages t = n/2 .. 8 (1 .. n/16 twiddle blocks) two to a pass,
    // an odd count starting with a radix-2 pass; then the tail.
    size_t blocks = 1;
    if ((tables.logDegree() - 3) % 2 != 0) {
        forwardFirstStage(a, n, w, w_shoup, m);
        blocks = 2;
    }
    for (; blocks <= n / 32; blocks *= 4)
        forwardRadix4(a, n, blocks, w, w_shoup, m);
    forwardTail(a, n, w, w_shoup, m);
}

/** Inverse stage t = n/2 (the last) scaled by n^{-1}, one pass. */
void
inverseLastStage(uint64_t *a, size_t n, const FinalScale &scale,
                 const ModulusLanes &m)
{
    const size_t half = n / 2;
    for (size_t j = 0; j < half; j += 4) {
        __m256i x = load(a + j);
        __m256i y = load(a + j + half);
        inverseButterflyScaled(x, y, scale, m);
        store(a + j, x);
        store(a + j + half, y);
    }
}

/**
 * Inverse stages with @p blocks and @p blocks / 2 twiddle blocks
 * (t = n / 2 blocks and 2t) in one pass; @p last (non-null when the
 * second is stage t = n/2) folds in the n^{-1} scaling.
 */
void
inverseRadix4(uint64_t *a, size_t n, size_t blocks, const uint64_t *w,
              const uint64_t *w_shoup, const ModulusLanes &m,
              const FinalScale *last)
{
    const size_t t = n / (2 * blocks);
    for (size_t i = 0; i < blocks / 2; ++i) {
        const Twiddle lo = broadcastTwiddle(w, w_shoup, blocks + 2 * i);
        const Twiddle hi =
            broadcastTwiddle(w, w_shoup, blocks + 2 * i + 1);
        const Twiddle outer = broadcastTwiddle(w, w_shoup, blocks / 2 + i);
        uint64_t *p = a + 4 * i * t;
        for (size_t k = 0; k < t; k += 4) {
            __m256i x0 = load(p + k);
            __m256i x1 = load(p + k + t);
            __m256i x2 = load(p + k + 2 * t);
            __m256i x3 = load(p + k + 3 * t);
            inverseButterfly(x0, x1, lo, m);
            inverseButterfly(x2, x3, hi, m);
            if (last) {
                inverseButterflyScaled(x0, x2, *last, m);
                inverseButterflyScaled(x1, x3, *last, m);
            } else {
                inverseButterfly(x0, x2, outer, m);
                inverseButterfly(x1, x3, outer, m);
            }
            store(p + k, x0);
            store(p + k + t, x1);
            store(p + k + 2 * t, x2);
            store(p + k + 3 * t, x3);
        }
    }
}

/**
 * Inverse stages t = 1, 2, 4 on each 8-coefficient chunk in
 * registers; @p last (non-null when n = 8) scales stage 4.
 */
void
inverseTail(uint64_t *a, size_t n, const uint64_t *w,
            const uint64_t *w_shoup, const ModulusLanes &m,
            const FinalScale *last)
{
    for (size_t c = 0; c < n; c += 8) {
        __m256i x = load(a + c);
        __m256i y = load(a + c + 4);
        swapHalves(x, y);
        interleave(x, y);
        inverseButterfly(x, y, loadTwiddles(w, w_shoup, (n + c) / 2), m);
        interleave(x, y);
        inverseButterfly(x, y, spreadTwiddles(w, w_shoup, (n + c) / 4), m);
        swapHalves(x, y);
        if (last)
            inverseButterflyScaled(x, y, *last, m);
        else
            inverseButterfly(x, y,
                             broadcastTwiddle(w, w_shoup, (n + c) / 8), m);
        store(a + c, x);
        store(a + c + 4, y);
    }
}

void
nttInverseAvx2(uint64_t *a, const ntt::NttTables &tables)
{
    const uint64_t qv = tables.modulus().value();
    const size_t n = tables.degree();
    if (!eligibleModulus(qv) || n < 8) {
        ntt::inverseNttScalar({a, n}, tables);
        return;
    }
    const ModulusLanes m{set1(qv), set1(2 * qv)};
    const uint64_t *w = tables.invRootPowers();
    const uint64_t *w_shoup = tables.invRootPowersShoup();
    const FinalScale scale = finalScale(tables);

    // The tail, then stages t = 8 .. n/2 (n/16 .. 1 twiddle blocks)
    // two to a pass, an odd count ending with a radix-2 pass. The last
    // stage, wherever it falls, carries the n^{-1} scaling.
    inverseTail(a, n, w, w_shoup, m, n == 8 ? &scale : nullptr);
    size_t blocks = n / 16;
    for (; blocks >= 2; blocks /= 4)
        inverseRadix4(a, n, blocks, w, w_shoup, m,
                      blocks == 2 ? &scale : nullptr);
    if (blocks == 1)
        inverseLastStage(a, n, scale, m);
}

void
addModOutAvx2(uint64_t *dst, const uint64_t *a, const uint64_t *b, size_t n,
              uint64_t q)
{
    const __m256i vq = set1(q);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i s = _mm256_add_epi64(load(a + j), load(b + j));
        store(dst + j, csub(s, vq));
    }
    addModOutScalar(dst + j, a + j, b + j, n - j, q);
}

void
addModAvx2(uint64_t *a, const uint64_t *b, size_t n, uint64_t q)
{
    addModOutAvx2(a, a, b, n, q);
}

void
subModOutAvx2(uint64_t *dst, const uint64_t *a, const uint64_t *b, size_t n,
              uint64_t q)
{
    const __m256i vq = set1(q);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i va = load(a + j);
        const __m256i vb = load(b + j);
        const __m256i lt = _mm256_cmpgt_epi64(vb, va);
        const __m256i d = _mm256_sub_epi64(va, vb);
        store(dst + j, _mm256_add_epi64(d, _mm256_and_si256(lt, vq)));
    }
    subModOutScalar(dst + j, a + j, b + j, n - j, q);
}

void
subModAvx2(uint64_t *a, const uint64_t *b, size_t n, uint64_t q)
{
    subModOutAvx2(a, a, b, n, q);
}

void
negateModAvx2(uint64_t *a, size_t n, uint64_t q)
{
    const __m256i vq = set1(q);
    const __m256i zero = _mm256_setzero_si256();
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i va = load(a + j);
        const __m256i eq = _mm256_cmpeq_epi64(va, zero);
        store(a + j,
              _mm256_andnot_si256(eq, _mm256_sub_epi64(vq, va)));
    }
    negateModScalar(a + j, n - j, q);
}

void
mulShoupOutAvx2(uint64_t *dst, const uint64_t *src, size_t n,
                const rns::Modulus &q, uint64_t w, uint64_t w_shoup)
{
    if (!eligibleModulus(q.value())) {
        mulShoupOutScalar(dst, src, n, q, w, w_shoup);
        return;
    }
    const __m256i vq = set1(q.value());
    const __m256i vw = set1(w);
    const __m256i vphi = set1(w_shoup >> 32);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i r = mulShoupLazy32(load(src + j), vw, vphi, vq);
        store(dst + j, csub(r, vq));
    }
    mulShoupOutScalar(dst + j, src + j, n - j, q, w, w_shoup);
}

void
mulShoupAvx2(uint64_t *a, size_t n, const rns::Modulus &q, uint64_t w,
             uint64_t w_shoup)
{
    mulShoupOutAvx2(a, a, n, q, w, w_shoup);
}

/** a[i]*b[i] mod q into [0, 2q); a, b < q < 2^30. */
inline __m256i
mulModLazy(__m256i va, __m256i vb, __m256i vq, __m256i vphi1,
           __m256i vc32, __m256i vphi_c32, __m256i mask32)
{
    const __m256i x = _mm256_mul_epu32(va, vb); // exact, < 2^60
    const __m256i d = _mm256_srli_epi64(x, 32);
    const __m256i l = _mm256_and_si256(x, mask32);
    const __m256i t1 = mulShoupLazy32(d, vc32, vphi_c32, vq);
    const __m256i t3 = reduceLazyBy1(l, vphi1, vq);
    const __m256i s = _mm256_add_epi64(t1, t3); // < 4q < 2^32
    return reduceLazyBy1(s, vphi1, vq);
}

void
mulModOutAvx2(uint64_t *dst, const uint64_t *a, const uint64_t *b, size_t n,
              const rns::Modulus &q)
{
    if (!eligibleModulus(q.value())) {
        mulModOutScalar(dst, a, b, n, q);
        return;
    }
    const Mod32Constants mc = mod32Constants(q);
    const __m256i vq = set1(mc.q);
    const __m256i vphi1 = set1(mc.phi1);
    const __m256i vc32 = set1(mc.c32);
    const __m256i vphi_c32 = set1(mc.phi_c32);
    const __m256i mask32 = set1(0xffffffffu);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i r = mulModLazy(load(a + j), load(b + j), vq,
                                     vphi1, vc32, vphi_c32, mask32);
        store(dst + j, csub(r, vq));
    }
    mulModOutScalar(dst + j, a + j, b + j, n - j, q);
}

void
mulModAvx2(uint64_t *a, const uint64_t *b, size_t n, const rns::Modulus &q)
{
    mulModOutAvx2(a, a, b, n, q);
}

void
macModAvx2(uint64_t *acc, const uint64_t *a, const uint64_t *b, size_t n,
           const rns::Modulus &q)
{
    if (!eligibleModulus(q.value())) {
        macModScalar(acc, a, b, n, q);
        return;
    }
    const Mod32Constants mc = mod32Constants(q);
    const __m256i vq = set1(mc.q);
    const __m256i vphi1 = set1(mc.phi1);
    const __m256i vc32 = set1(mc.c32);
    const __m256i vphi_c32 = set1(mc.phi_c32);
    const __m256i mask32 = set1(0xffffffffu);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i p =
            csub(mulModLazy(load(a + j), load(b + j), vq, vphi1, vc32,
                            vphi_c32, mask32),
                 vq);
        const __m256i s = _mm256_add_epi64(load(acc + j), p);
        store(acc + j, csub(s, vq));
    }
    macModScalar(acc + j, a + j, b + j, n - j, q);
}

void
reduceU32Avx2(uint64_t *dst, const uint64_t *src, size_t n,
              const rns::Modulus &q)
{
    if (!eligibleModulus(q.value())) {
        reduceU32Scalar(dst, src, n, q);
        return;
    }
    const Mod32Constants mc = mod32Constants(q);
    const __m256i vq = set1(mc.q);
    const __m256i vphi1 = set1(mc.phi1);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i r = reduceLazyBy1(load(src + j), vphi1, vq);
        store(dst + j, csub(r, vq));
    }
    reduceU32Scalar(dst + j, src + j, n - j, q);
}

/** Four 64-bit lanes: the HPS kernels' AVX2 bodies. */
struct Avx2Lanes
{
    using Reg = __m256i;
    static constexpr size_t kLanes = 4;

    static Reg load(const uint64_t *p) { return detail::load(p); }
    static void store(uint64_t *p, Reg x) { detail::store(p, x); }
    static Reg set1(uint64_t x) { return detail::set1(x); }
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
    static Reg csub(Reg x, Reg k) { return detail::csub(x, k); }
};

} // namespace

const Kernels &
avx2Kernels()
{
    static const Kernels table = {
        Level::kAvx2,    nttForwardAvx2, nttInverseAvx2,
        addModAvx2,      subModAvx2,     negateModAvx2,
        mulShoupAvx2,    mulShoupOutAvx2, mulModAvx2,
        macModAvx2,      reduceU32Avx2,
        Hps<Avx2Lanes>::convertBatch, Hps<Avx2Lanes>::scaleBatch,
        addModOutAvx2,  subModOutAvx2,  mulModOutAvx2,
    };
    return table;
}

} // namespace heat::simd::detail
