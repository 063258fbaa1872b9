/**
 * @file
 * AVX-512F kernel table (8 lanes of 64-bit). Compiled with a per-file
 * `-mavx512f`; only reached through the runtime dispatcher.
 *
 * Same 32-bit Shoup/Harvey reduction chains as the AVX2 table (see
 * simd_avx2.cc for the range arguments) — the wins here are twice the
 * lane count and native unsigned 64-bit compares into mask registers
 * (no sign-bias tricks for carries or conditional subtracts).
 */

#include <immintrin.h>

#include "ntt/ntt.h"
#include "ntt/ntt_tables.h"
#include "rns/modulus.h"
#include "simd/hps_kernels.h"
#include "simd/simd_internal.h"

namespace heat::simd::detail {

namespace {

inline __m512i
load(const uint64_t *p)
{
    return _mm512_loadu_si512(p);
}

inline void
store(uint64_t *p, __m512i x)
{
    _mm512_storeu_si512(p, x);
}

inline __m512i
set1(uint64_t x)
{
    return _mm512_set1_epi64(static_cast<long long>(x));
}

/** x >= k ? x - k : x via an unsigned mask compare. */
inline __m512i
csub(__m512i x, __m512i k)
{
    const __mmask8 ge = _mm512_cmpge_epu64_mask(x, k);
    return _mm512_mask_sub_epi64(x, ge, x, k);
}

/** See simd_avx2.cc: lazy Shoup product in [0, 2q), a < 2^32. */
inline __m512i
mulShoupLazy32(__m512i a, __m512i w, __m512i phi, __m512i q)
{
    const __m512i quot = _mm512_srli_epi64(_mm512_mul_epu32(a, phi), 32);
    return _mm512_sub_epi64(_mm512_mul_epu32(a, w),
                            _mm512_mul_epu32(quot, q));
}

/** s mod q into [0, 2q) for s < 2^32 (Shoup with w = 1). */
inline __m512i
reduceLazyBy1(__m512i s, __m512i phi1, __m512i q)
{
    const __m512i quot = _mm512_srli_epi64(_mm512_mul_epu32(s, phi1), 32);
    return _mm512_sub_epi64(s, _mm512_mul_epu32(quot, q));
}

/** q and 2q in every lane. */
struct ModulusLanes
{
    __m512i q;
    __m512i two_q;
};

/** Per-lane twiddles with their 32-bit Shoup constants. */
struct Twiddle
{
    __m512i w;
    __m512i phi;
};

/** Twiddle i in every lane. */
inline Twiddle
broadcastTwiddle(const uint64_t *w, const uint64_t *w_shoup, size_t i)
{
    return {set1(w[i]), set1(w_shoup[i] >> 32)};
}

/** Twiddles i .. i + 7, one per lane. */
inline Twiddle
loadTwiddles(const uint64_t *w, const uint64_t *w_shoup, size_t i)
{
    return {load(w + i), _mm512_srli_epi64(load(w_shoup + i), 32)};
}

/**
 * The twiddles from i selected by @p mask, lane k taking twiddle
 * i + spread[k]: one contiguous load per table, no gather.
 */
inline Twiddle
spreadTwiddles(const uint64_t *w, const uint64_t *w_shoup, size_t i,
               __mmask8 mask, __m512i spread)
{
    const __m512i vw = _mm512_maskz_loadu_epi64(mask, w + i);
    const __m512i vs = _mm512_maskz_loadu_epi64(mask, w_shoup + i);
    return {_mm512_permutexvar_epi64(spread, vw),
            _mm512_srli_epi64(_mm512_permutexvar_epi64(spread, vs), 32)};
}

/** Harvey CT butterfly: x, y in [0, 4q) -> x + wy, x - wy in [0, 4q). */
inline void
forwardButterfly(__m512i &x, __m512i &y, const Twiddle &tw,
                 const ModulusLanes &m)
{
    const __m512i u = csub(x, m.two_q);
    const __m512i v = mulShoupLazy32(y, tw.w, tw.phi, m.q);
    x = _mm512_add_epi64(u, v);
    y = _mm512_add_epi64(_mm512_sub_epi64(u, v), m.two_q);
}

/** GS butterfly: x, y in [0, 2q) -> x + y, w(x - y) in [0, 2q). */
inline void
inverseButterfly(__m512i &x, __m512i &y, const Twiddle &tw,
                 const ModulusLanes &m)
{
    const __m512i d = _mm512_add_epi64(_mm512_sub_epi64(x, y), m.two_q);
    x = csub(_mm512_add_epi64(x, y), m.two_q);
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
inverseButterflyScaled(__m512i &x, __m512i &y, const FinalScale &s,
                       const ModulusLanes &m)
{
    const __m512i d = _mm512_add_epi64(_mm512_sub_epi64(x, y), m.two_q);
    const __m512i sum = csub(_mm512_add_epi64(x, y), m.two_q);
    x = csub(mulShoupLazy32(sum, s.n_inv.w, s.n_inv.phi, m.q), m.q);
    y = csub(mulShoupLazy32(d, s.w_n_inv.w, s.w_n_inv.phi, m.q), m.q);
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

/** Forward stage t = n/2 (twiddle 1) as a pass of its own. */
void
forwardFirstStage(uint64_t *a, size_t n, const uint64_t *w,
                  const uint64_t *w_shoup, const ModulusLanes &m)
{
    const Twiddle tw = broadcastTwiddle(w, w_shoup, 1);
    const size_t half = n / 2;
    for (size_t j = 0; j < half; j += 8) {
        __m512i x = load(a + j);
        __m512i y = load(a + j + half);
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
        for (size_t k = 0; k < h; k += 8) {
            __m512i x0 = load(p + k);
            __m512i x1 = load(p + k + h);
            __m512i x2 = load(p + k + t);
            __m512i x3 = load(p + k + t + h);
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
 * Forward stages t = 8, 4, 2, 1 on each 16-coefficient chunk in
 * registers, ending in the canonical store. Stage t's twiddles for
 * chunk c start at index (n + c) / 2t.
 */
void
forwardTail(uint64_t *a, size_t n, const uint64_t *w,
            const uint64_t *w_shoup, const ModulusLanes &m)
{
    const TailShuffles s;
    for (size_t c = 0; c < n; c += 16) {
        __m512i x = load(a + c);
        __m512i y = load(a + c + 8);
        forwardButterfly(x, y, broadcastTwiddle(w, w_shoup, (n + c) / 16),
                         m);
        regroup(x, y, s.t4_x, s.t4_y);
        forwardButterfly(
            x, y, spreadTwiddles(w, w_shoup, (n + c) / 8, 0x03, s.spread2),
            m);
        regroup(x, y, s.t2_x, s.t2_y);
        forwardButterfly(
            x, y, spreadTwiddles(w, w_shoup, (n + c) / 4, 0x0f, s.spread4),
            m);
        regroup(x, y, s.t1_x, s.t1_y);
        forwardButterfly(x, y, loadTwiddles(w, w_shoup, (n + c) / 2), m);
        x = csub(csub(x, m.two_q), m.q);
        y = csub(csub(y, m.two_q), m.q);
        store(a + c, _mm512_permutex2var_epi64(x, s.low, y));
        store(a + c + 8, _mm512_permutex2var_epi64(x, s.high, y));
    }
}

void
nttForwardAvx512(uint64_t *a, const ntt::NttTables &tables)
{
    const uint64_t qv = tables.modulus().value();
    const size_t n = tables.degree();
    if (!eligibleModulus(qv) || n < 16) {
        ntt::forwardNttScalar({a, n}, tables);
        return;
    }
    const ModulusLanes m{set1(qv), set1(2 * qv)};
    const uint64_t *w = tables.rootPowers();
    const uint64_t *w_shoup = tables.rootPowersShoup();

    // Stages t = n/2 .. 16 (1 .. n/32 twiddle blocks) two to a pass,
    // an odd count starting with a radix-2 pass; then the tail.
    size_t blocks = 1;
    if ((tables.logDegree() - 4) % 2 != 0) {
        forwardFirstStage(a, n, w, w_shoup, m);
        blocks = 2;
    }
    for (; blocks <= n / 64; blocks *= 4)
        forwardRadix4(a, n, blocks, w, w_shoup, m);
    forwardTail(a, n, w, w_shoup, m);
}

/** Inverse stage t = n/2 (the last) scaled by n^{-1}, one pass. */
void
inverseLastStage(uint64_t *a, size_t n, const FinalScale &scale,
                 const ModulusLanes &m)
{
    const size_t half = n / 2;
    for (size_t j = 0; j < half; j += 8) {
        __m512i x = load(a + j);
        __m512i y = load(a + j + half);
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
        for (size_t k = 0; k < t; k += 8) {
            __m512i x0 = load(p + k);
            __m512i x1 = load(p + k + t);
            __m512i x2 = load(p + k + 2 * t);
            __m512i x3 = load(p + k + 3 * t);
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
 * Inverse stages t = 1, 2, 4, 8 on each 16-coefficient chunk in
 * registers; @p last (non-null when n = 16) scales stage 8.
 */
void
inverseTail(uint64_t *a, size_t n, const uint64_t *w,
            const uint64_t *w_shoup, const ModulusLanes &m,
            const FinalScale *last)
{
    const TailShuffles s;
    for (size_t c = 0; c < n; c += 16) {
        const __m512i lo = load(a + c);
        const __m512i hi = load(a + c + 8);
        __m512i x = _mm512_permutex2var_epi64(lo, s.even, hi);
        __m512i y = _mm512_permutex2var_epi64(lo, s.odd, hi);
        inverseButterfly(x, y, loadTwiddles(w, w_shoup, (n + c) / 2), m);
        regroup(x, y, s.t1_x, s.t1_y);
        inverseButterfly(
            x, y, spreadTwiddles(w, w_shoup, (n + c) / 4, 0x0f, s.spread4),
            m);
        regroup(x, y, s.t2_x, s.t2_y);
        inverseButterfly(
            x, y, spreadTwiddles(w, w_shoup, (n + c) / 8, 0x03, s.spread2),
            m);
        regroup(x, y, s.t4_x, s.t4_y);
        if (last)
            inverseButterflyScaled(x, y, *last, m);
        else
            inverseButterfly(
                x, y, broadcastTwiddle(w, w_shoup, (n + c) / 16), m);
        store(a + c, x);
        store(a + c + 8, y);
    }
}

void
nttInverseAvx512(uint64_t *a, const ntt::NttTables &tables)
{
    const uint64_t qv = tables.modulus().value();
    const size_t n = tables.degree();
    if (!eligibleModulus(qv) || n < 16) {
        ntt::inverseNttScalar({a, n}, tables);
        return;
    }
    const ModulusLanes m{set1(qv), set1(2 * qv)};
    const uint64_t *w = tables.invRootPowers();
    const uint64_t *w_shoup = tables.invRootPowersShoup();
    const FinalScale scale = finalScale(tables);

    // The tail, then stages t = 16 .. n/2 (n/32 .. 1 twiddle blocks)
    // two to a pass, an odd count ending with a radix-2 pass. The last
    // stage, wherever it falls, carries the n^{-1} scaling.
    inverseTail(a, n, w, w_shoup, m, n == 16 ? &scale : nullptr);
    size_t blocks = n / 32;
    for (; blocks >= 2; blocks /= 4)
        inverseRadix4(a, n, blocks, w, w_shoup, m,
                      blocks == 2 ? &scale : nullptr);
    if (blocks == 1)
        inverseLastStage(a, n, scale, m);
}

void
addModOutAvx512(uint64_t *dst, const uint64_t *a, const uint64_t *b, size_t n,
                uint64_t q)
{
    const __m512i vq = set1(q);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i s = _mm512_add_epi64(load(a + j), load(b + j));
        store(dst + j, csub(s, vq));
    }
    addModOutScalar(dst + j, a + j, b + j, n - j, q);
}

void
addModAvx512(uint64_t *a, const uint64_t *b, size_t n, uint64_t q)
{
    addModOutAvx512(a, a, b, n, q);
}

void
subModOutAvx512(uint64_t *dst, const uint64_t *a, const uint64_t *b, size_t n,
                uint64_t q)
{
    const __m512i vq = set1(q);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i va = load(a + j);
        const __m512i vb = load(b + j);
        const __mmask8 lt = _mm512_cmplt_epu64_mask(va, vb);
        const __m512i d = _mm512_sub_epi64(va, vb);
        store(dst + j, _mm512_mask_add_epi64(d, lt, d, vq));
    }
    subModOutScalar(dst + j, a + j, b + j, n - j, q);
}

void
subModAvx512(uint64_t *a, const uint64_t *b, size_t n, uint64_t q)
{
    subModOutAvx512(a, a, b, n, q);
}

void
negateModAvx512(uint64_t *a, size_t n, uint64_t q)
{
    const __m512i vq = set1(q);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i va = load(a + j);
        const __mmask8 nz = _mm512_test_epi64_mask(va, va);
        store(a + j, _mm512_maskz_sub_epi64(nz, vq, va));
    }
    negateModScalar(a + j, n - j, q);
}

void
mulShoupOutAvx512(uint64_t *dst, const uint64_t *src, size_t n,
                  const rns::Modulus &q, uint64_t w, uint64_t w_shoup)
{
    if (!eligibleModulus(q.value())) {
        mulShoupOutScalar(dst, src, n, q, w, w_shoup);
        return;
    }
    const __m512i vq = set1(q.value());
    const __m512i vw = set1(w);
    const __m512i vphi = set1(w_shoup >> 32);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i r = mulShoupLazy32(load(src + j), vw, vphi, vq);
        store(dst + j, csub(r, vq));
    }
    mulShoupOutScalar(dst + j, src + j, n - j, q, w, w_shoup);
}

void
mulShoupAvx512(uint64_t *a, size_t n, const rns::Modulus &q, uint64_t w,
               uint64_t w_shoup)
{
    mulShoupOutAvx512(a, a, n, q, w, w_shoup);
}

/** a[i]*b[i] mod q into [0, 2q); a, b < q < 2^30. */
inline __m512i
mulModLazy(__m512i va, __m512i vb, __m512i vq, __m512i vphi1,
           __m512i vc32, __m512i vphi_c32, __m512i mask32)
{
    const __m512i x = _mm512_mul_epu32(va, vb); // exact, < 2^60
    const __m512i d = _mm512_srli_epi64(x, 32);
    const __m512i l = _mm512_and_epi64(x, mask32);
    const __m512i t1 = mulShoupLazy32(d, vc32, vphi_c32, vq);
    const __m512i t3 = reduceLazyBy1(l, vphi1, vq);
    const __m512i s = _mm512_add_epi64(t1, t3); // < 4q < 2^32
    return reduceLazyBy1(s, vphi1, vq);
}

void
mulModOutAvx512(uint64_t *dst, const uint64_t *a, const uint64_t *b, size_t n,
                const rns::Modulus &q)
{
    if (!eligibleModulus(q.value())) {
        mulModOutScalar(dst, a, b, n, q);
        return;
    }
    const Mod32Constants mc = mod32Constants(q);
    const __m512i vq = set1(mc.q);
    const __m512i vphi1 = set1(mc.phi1);
    const __m512i vc32 = set1(mc.c32);
    const __m512i vphi_c32 = set1(mc.phi_c32);
    const __m512i mask32 = set1(0xffffffffu);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i r = mulModLazy(load(a + j), load(b + j), vq,
                                     vphi1, vc32, vphi_c32, mask32);
        store(dst + j, csub(r, vq));
    }
    mulModOutScalar(dst + j, a + j, b + j, n - j, q);
}

void
mulModAvx512(uint64_t *a, const uint64_t *b, size_t n, const rns::Modulus &q)
{
    mulModOutAvx512(a, a, b, n, q);
}

void
macModAvx512(uint64_t *acc, const uint64_t *a, const uint64_t *b,
             size_t n, const rns::Modulus &q)
{
    if (!eligibleModulus(q.value())) {
        macModScalar(acc, a, b, n, q);
        return;
    }
    const Mod32Constants mc = mod32Constants(q);
    const __m512i vq = set1(mc.q);
    const __m512i vphi1 = set1(mc.phi1);
    const __m512i vc32 = set1(mc.c32);
    const __m512i vphi_c32 = set1(mc.phi_c32);
    const __m512i mask32 = set1(0xffffffffu);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i p =
            csub(mulModLazy(load(a + j), load(b + j), vq, vphi1, vc32,
                            vphi_c32, mask32),
                 vq);
        const __m512i s = _mm512_add_epi64(load(acc + j), p);
        store(acc + j, csub(s, vq));
    }
    macModScalar(acc + j, a + j, b + j, n - j, q);
}

void
reduceU32Avx512(uint64_t *dst, const uint64_t *src, size_t n,
                const rns::Modulus &q)
{
    if (!eligibleModulus(q.value())) {
        reduceU32Scalar(dst, src, n, q);
        return;
    }
    const Mod32Constants mc = mod32Constants(q);
    const __m512i vq = set1(mc.q);
    const __m512i vphi1 = set1(mc.phi1);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i r = reduceLazyBy1(load(src + j), vphi1, vq);
        store(dst + j, csub(r, vq));
    }
    reduceU32Scalar(dst + j, src + j, n - j, q);
}

/** Eight 64-bit lanes: the HPS kernels' AVX-512 bodies. */
struct Avx512Lanes
{
    using Reg = __m512i;
    static constexpr size_t kLanes = 8;

    static Reg load(const uint64_t *p) { return detail::load(p); }
    static void store(uint64_t *p, Reg x) { detail::store(p, x); }
    static Reg set1(uint64_t x) { return detail::set1(x); }
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
    static Reg csub(Reg x, Reg k) { return detail::csub(x, k); }
};

} // namespace

const Kernels &
avx512Kernels()
{
    static const Kernels table = {
        Level::kAvx512,  nttForwardAvx512, nttInverseAvx512,
        addModAvx512,    subModAvx512,     negateModAvx512,
        mulShoupAvx512,  mulShoupOutAvx512, mulModAvx512,
        macModAvx512,    reduceU32Avx512,
        Hps<Avx512Lanes>::convertBatch, Hps<Avx512Lanes>::scaleBatch,
        addModOutAvx512,  subModOutAvx512,  mulModOutAvx512,
    };
    return table;
}

} // namespace heat::simd::detail
