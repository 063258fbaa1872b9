/**
 * @file
 * Every kernel of the vector tables, written once over a lane type and
 * instantiated by each table's translation unit under its own ISA
 * flags: the 32-bit Shoup/Harvey chains (Shoup<V>), the negacyclic
 * NTTs (Ntt<V>), the dyadic residue loops and the Barrett product
 * (Dyadic<V>), the NTT-domain automorphism (Automorph<V>), the fused
 * HPS kernels (Hps<V>) and the table that points at them
 * (vectorKernels<V>). Internal; include simd/simd.h instead.
 *
 * A lane type V holds kLanes 64-bit lanes in a Reg and provides, as
 * static members:
 *  - load(p), store(p, x): kLanes unaligned values; set1(x): x in every
 *    lane;
 *  - add(a, b), sub(a, b): lane-wise, mod 2^64;
 *  - mul32(a, b): low 32 bits times low 32 bits -> 64;
 *  - srl32(a): a >> 32; srl(a, s): a >> a run-time count; lo32(a):
 *    a & (2^32 - 1);
 *  - csub(x, k): x >= k ? x - k : x, for x, k < 2^63;
 *  - subMod(a, b, q): a - b mod q, for a, b < q;
 *  - negMod(a, q): -a mod q, for a < q;
 *  - permute(x, idx): lane i takes x's lane idx[i] mod kLanes, for
 *    kLanes 32-bit indices at idx.
 * Hps<V> uses the rows up to csub only, so ScalarLanes (the scalar
 * table's HPS body) and Pair<V> supply just those. Ntt<V> also needs
 * an NttTail<V> specialization: the stages narrower than a vector run
 * in registers, and there the lane permutes are the ISA's own. Each
 * table defines its lane type in an anonymous namespace, so every
 * instantiation stays in the translation unit whose flags compiled it.
 *
 * Range arguments, all primes < 2^30 (kLaneModulusBound):
 *  - every live value fits 32 bits, so one mul32 gives a full product,
 *    and Shoup's quot = floor(a * phi / 2^32) with phi = floor(w *
 *    2^32 / q) leaves a*w - quot*q in [0, 2q) for any a < 2^32, w < q
 *    (Harvey). The 32-bit Shoup constant of a stored 64-bit one is its
 *    top half: floor(w 2^64 / q) >> 32 == floor(w 2^32 / q). Lazy
 *    values differ from the scalar oracle's by multiples of q, but
 *    every kernel normalizes its outputs, so results are bit-identical.
 *    Wider moduli and sub-vector tails run the scalar bodies.
 *  - Barrett product (HAC 14.42 in base 2): with k = bitlen(q), so
 *    2^(k-1) <= q < 2^k, x = ab < 2^2k and mu = floor(2^2k / q) < 2^31,
 *    quot = ((x >> (k-1)) mu) >> (k+1) is floor(x / q) or up to two
 *    less, so x - quot q lies in [0, 3q). x >> (k-1) < 2^(k+1) <= 2^31
 *    and quot < 2^(k+1), so every factor fits mul32.
 *  - HPS: lambda_i = Shoup(x_i * q~_i) is canonical, < 2^30.
 *  - round(sum_i x_i w_i / 2^f) with w_i <= 2^60 splits each weight
 *    into 32-bit halves: M = sum x_i w_hi + sum (x_i w_lo >> 32) <=
 *    32 * 2^58 + 32 * 2^30 and A = sum (x_i w_lo mod 2^32) < 2^37, so
 *    sum = 2^32 (M + (A >> 32)) + (A mod 2^32) and the rounded
 *    quotient is (M + (A >> 32) + 2^(f-33)) >> (f - 32), with no
 *    128-bit carry anywhere and nothing past 2^64.
 *  - every HPS output sum starts below 2^36 (v' * weight or the rounded
 *    scale term, both < 32 * 2^30) and adds products < 2^60; fifteen
 *    of them stay below 2^64, so the accumulator is folded into
 *    [0, 2q) every kFoldTerms products and reduced once at the end.
 */

#ifndef HEAT_SIMD_VECTOR_KERNELS_H
#define HEAT_SIMD_VECTOR_KERNELS_H

#include <algorithm>

#include "common/bit_util.h"
#include "ntt/ntt.h"
#include "ntt/ntt_tables.h"
#include "rns/modulus.h"
#include "simd/simd_internal.h"

namespace heat::simd::detail {

/** Two registers of V side by side as one lane type. */
template <class V>
struct Pair
{
    struct Reg
    {
        typename V::Reg a, b;
    };
    static constexpr size_t kLanes = 2 * V::kLanes;

    static Reg
    load(const uint64_t *p)
    {
        return {V::load(p), V::load(p + V::kLanes)};
    }
    static void
    store(uint64_t *p, Reg x)
    {
        V::store(p, x.a);
        V::store(p + V::kLanes, x.b);
    }
    static Reg
    set1(uint64_t x)
    {
        const typename V::Reg r = V::set1(x);
        return {r, r};
    }
    static Reg add(Reg x, Reg y) { return {V::add(x.a, y.a), V::add(x.b, y.b)}; }
    static Reg sub(Reg x, Reg y) { return {V::sub(x.a, y.a), V::sub(x.b, y.b)}; }
    static Reg
    mul32(Reg x, Reg y)
    {
        return {V::mul32(x.a, y.a), V::mul32(x.b, y.b)};
    }
    static Reg srl32(Reg x) { return {V::srl32(x.a), V::srl32(x.b)}; }
    static Reg srl(Reg x, int s) { return {V::srl(x.a, s), V::srl(x.b, s)}; }
    static Reg lo32(Reg x) { return {V::lo32(x.a), V::lo32(x.b)}; }
    static Reg
    csub(Reg x, Reg k)
    {
        return {V::csub(x.a, k.a), V::csub(x.b, k.b)};
    }
};

/** The 32-bit Shoup/Harvey reduction chains. */
template <class V>
struct Shoup
{
    using Reg = typename V::Reg;

    /** One prime's constants in every lane. */
    struct Mod
    {
        Reg q, phi1, c32, phi_c32;
    };

    static Mod
    lanes(const Mod32Constants &m)
    {
        return {V::set1(m.q), V::set1(m.phi1), V::set1(m.c32),
                V::set1(m.phi_c32)};
    }

    /** a * w mod q into [0, 2q) for a < 2^32, w < q, phi =
     *  floor(w * 2^32 / q) (Harvey). */
    static Reg
    mulLazy(Reg a, Reg w, Reg phi, Reg q)
    {
        const Reg quot = V::srl32(V::mul32(a, phi));
        return V::sub(V::mul32(a, w), V::mul32(quot, q));
    }

    /** s mod q into [0, 2q) for s < 2^32 (mulLazy with w = 1). */
    static Reg
    reduceLazy32(Reg s, const Mod &m)
    {
        const Reg quot = V::srl32(V::mul32(s, m.phi1));
        return V::sub(s, V::mul32(quot, m.q));
    }

    /** x mod q into [0, 2q) for any 64-bit x: 2^32 hi + lo. */
    static Reg
    reduceLazy64(Reg x, const Mod &m)
    {
        const Reg hi = mulLazy(V::srl32(x), m.c32, m.phi_c32, m.q);
        const Reg lo = reduceLazy32(V::lo32(x), m);
        return reduceLazy32(V::add(hi, lo), m); // < 4q < 2^32
    }
};

/**
 * The in-register NTT stages t < Ntt<V>::kChunk, specialized by each
 * table's translation unit:
 *  - forward(a, n, w, w_shoup, m): forward stages kChunk / 2 .. 1 on
 *    each kChunk-coefficient chunk of a, ending in the canonical store
 *    (Ntt<V>::canonical). Stage t's twiddles for chunk c start at
 *    index (n + c) / 2t.
 *  - inverse(a, n, w, w_shoup, m, last): inverse stages 1 .. kChunk /
 *    2 on each chunk; @p last (non-null when n = kChunk) scales the
 *    last of them by n^{-1}.
 */
template <class V>
struct NttTail;

/** The negacyclic NTTs (Kernels::ntt_forward / ntt_inverse). */
template <class V>
struct Ntt
{
    using Reg = typename V::Reg;
    using S = Shoup<V>;

    /** Coefficients of one in-register tail chunk: two vectors. */
    static constexpr size_t kChunk = 2 * V::kLanes;

    /** q and 2q in every lane. */
    struct ModulusLanes
    {
        Reg q;
        Reg two_q;
    };

    /** Per-lane twiddles with their 32-bit Shoup constants. */
    struct Twiddle
    {
        Reg w;
        Reg phi;
    };

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

    /** Twiddle i in every lane. */
    static Twiddle
    broadcastTwiddle(const uint64_t *w, const uint64_t *w_shoup, size_t i)
    {
        return {V::set1(w[i]), V::set1(w_shoup[i] >> 32)};
    }

    /** Twiddles i .. i + kLanes - 1, one per lane. */
    static Twiddle
    loadTwiddles(const uint64_t *w, const uint64_t *w_shoup, size_t i)
    {
        return {V::load(w + i), V::srl32(V::load(w_shoup + i))};
    }

    static FinalScale
    finalScale(const ntt::NttTables &tables)
    {
        const rns::Modulus &mod = tables.modulus();
        const uint64_t wn =
            mod.mul(tables.invRootPower(1), tables.invDegree());
        // 32-bit Shoup constant floor(wn 2^32 / q); wn < q < 2^30.
        return {{V::set1(tables.invDegree()),
                 V::set1(tables.invDegreeShoup() >> 32)},
                {V::set1(wn), V::set1((wn << 32) / mod.value())}};
    }

    /** Harvey CT butterfly: x, y in [0, 4q) -> x + wy, x - wy in [0, 4q). */
    static void
    forwardButterfly(Reg &x, Reg &y, const Twiddle &tw, const ModulusLanes &m)
    {
        const Reg u = V::csub(x, m.two_q);
        const Reg v = S::mulLazy(y, tw.w, tw.phi, m.q);
        x = V::add(u, v);
        y = V::add(V::sub(u, v), m.two_q);
    }

    /** GS butterfly: x, y in [0, 2q) -> x + y, w(x - y) in [0, 2q). */
    static void
    inverseButterfly(Reg &x, Reg &y, const Twiddle &tw, const ModulusLanes &m)
    {
        const Reg d = V::add(V::sub(x, y), m.two_q);
        x = V::csub(V::add(x, y), m.two_q);
        y = S::mulLazy(d, tw.w, tw.phi, m.q);
    }

    /** The last GS butterfly, scaled by n^{-1}; canonical outputs. */
    static void
    inverseButterflyScaled(Reg &x, Reg &y, const FinalScale &s,
                           const ModulusLanes &m)
    {
        const Reg d = V::add(V::sub(x, y), m.two_q);
        const Reg sum = V::csub(V::add(x, y), m.two_q);
        x = V::csub(S::mulLazy(sum, s.n_inv.w, s.n_inv.phi, m.q), m.q);
        y = V::csub(S::mulLazy(d, s.w_n_inv.w, s.w_n_inv.phi, m.q),
                    m.q);
    }

    /** A forward output in [0, 4q), made canonical. */
    static Reg
    canonical(Reg x, const ModulusLanes &m)
    {
        return V::csub(V::csub(x, m.two_q), m.q);
    }

    /** Forward stage t = n/2 (twiddle 1) as a pass of its own. */
    static void
    forwardFirstStage(uint64_t *a, size_t n, const uint64_t *w,
                      const uint64_t *w_shoup, const ModulusLanes &m)
    {
        const Twiddle tw = broadcastTwiddle(w, w_shoup, 1);
        const size_t half = n / 2;
        for (size_t j = 0; j < half; j += V::kLanes) {
            Reg x = V::load(a + j);
            Reg y = V::load(a + j + half);
            forwardButterfly(x, y, tw, m);
            V::store(a + j, x);
            V::store(a + j + half, y);
        }
    }

    /**
     * Forward stages with @p blocks and 2 @p blocks twiddle blocks
     * (t = n / 2 blocks and t/2) in one pass.
     */
    static void
    forwardRadix4(uint64_t *a, size_t n, size_t blocks, const uint64_t *w,
                  const uint64_t *w_shoup, const ModulusLanes &m)
    {
        const size_t t = n / (2 * blocks);
        const size_t h = t / 2;
        for (size_t i = 0; i < blocks; ++i) {
            const Twiddle outer = broadcastTwiddle(w, w_shoup, blocks + i);
            const Twiddle lo =
                broadcastTwiddle(w, w_shoup, 2 * (blocks + i));
            const Twiddle hi =
                broadcastTwiddle(w, w_shoup, 2 * (blocks + i) + 1);
            uint64_t *p = a + 2 * i * t;
            for (size_t k = 0; k < h; k += V::kLanes) {
                Reg x0 = V::load(p + k);
                Reg x1 = V::load(p + k + h);
                Reg x2 = V::load(p + k + t);
                Reg x3 = V::load(p + k + t + h);
                forwardButterfly(x0, x2, outer, m);
                forwardButterfly(x1, x3, outer, m);
                forwardButterfly(x0, x1, lo, m);
                forwardButterfly(x2, x3, hi, m);
                V::store(p + k, x0);
                V::store(p + k + h, x1);
                V::store(p + k + t, x2);
                V::store(p + k + t + h, x3);
            }
        }
    }

    static void
    forward(uint64_t *a, const ntt::NttTables &tables)
    {
        const uint64_t qv = tables.modulus().value();
        const size_t n = tables.degree();
        if (!eligibleModulus(qv) || n < kChunk) {
            ntt::forwardNttScalar({a, n}, tables);
            return;
        }
        const ModulusLanes m{V::set1(qv), V::set1(2 * qv)};
        const uint64_t *w = tables.rootPowers();
        const uint64_t *w_shoup = tables.rootPowersShoup();

        // Stages t = n/2 .. kChunk (1 .. n / 2 kChunk twiddle blocks)
        // two to a pass, an odd count starting with a radix-2 pass;
        // then the tail.
        size_t blocks = 1;
        if ((tables.logDegree() - log2Floor(kChunk)) % 2 != 0) {
            forwardFirstStage(a, n, w, w_shoup, m);
            blocks = 2;
        }
        for (; blocks <= n / (4 * kChunk); blocks *= 4)
            forwardRadix4(a, n, blocks, w, w_shoup, m);
        NttTail<V>::forward(a, n, w, w_shoup, m);
    }

    /** Inverse stage t = n/2 (the last) scaled by n^{-1}, one pass. */
    static void
    inverseLastStage(uint64_t *a, size_t n, const FinalScale &scale,
                     const ModulusLanes &m)
    {
        const size_t half = n / 2;
        for (size_t j = 0; j < half; j += V::kLanes) {
            Reg x = V::load(a + j);
            Reg y = V::load(a + j + half);
            inverseButterflyScaled(x, y, scale, m);
            V::store(a + j, x);
            V::store(a + j + half, y);
        }
    }

    /**
     * Inverse stages with @p blocks and @p blocks / 2 twiddle blocks
     * (t = n / 2 blocks and 2t) in one pass; @p last (non-null when the
     * second is stage t = n/2) folds in the n^{-1} scaling.
     */
    static void
    inverseRadix4(uint64_t *a, size_t n, size_t blocks, const uint64_t *w,
                  const uint64_t *w_shoup, const ModulusLanes &m,
                  const FinalScale *last)
    {
        const size_t t = n / (2 * blocks);
        for (size_t i = 0; i < blocks / 2; ++i) {
            const Twiddle lo = broadcastTwiddle(w, w_shoup, blocks + 2 * i);
            const Twiddle hi =
                broadcastTwiddle(w, w_shoup, blocks + 2 * i + 1);
            const Twiddle outer =
                broadcastTwiddle(w, w_shoup, blocks / 2 + i);
            uint64_t *p = a + 4 * i * t;
            for (size_t k = 0; k < t; k += V::kLanes) {
                Reg x0 = V::load(p + k);
                Reg x1 = V::load(p + k + t);
                Reg x2 = V::load(p + k + 2 * t);
                Reg x3 = V::load(p + k + 3 * t);
                inverseButterfly(x0, x1, lo, m);
                inverseButterfly(x2, x3, hi, m);
                if (last) {
                    inverseButterflyScaled(x0, x2, *last, m);
                    inverseButterflyScaled(x1, x3, *last, m);
                } else {
                    inverseButterfly(x0, x2, outer, m);
                    inverseButterfly(x1, x3, outer, m);
                }
                V::store(p + k, x0);
                V::store(p + k + t, x1);
                V::store(p + k + 2 * t, x2);
                V::store(p + k + 3 * t, x3);
            }
        }
    }

    static void
    inverse(uint64_t *a, const ntt::NttTables &tables)
    {
        const uint64_t qv = tables.modulus().value();
        const size_t n = tables.degree();
        if (!eligibleModulus(qv) || n < kChunk) {
            ntt::inverseNttScalar({a, n}, tables);
            return;
        }
        const ModulusLanes m{V::set1(qv), V::set1(2 * qv)};
        const uint64_t *w = tables.invRootPowers();
        const uint64_t *w_shoup = tables.invRootPowersShoup();
        const FinalScale scale = finalScale(tables);

        // The tail, then stages t = kChunk .. n/2 (n / 2 kChunk .. 1
        // twiddle blocks) two to a pass, an odd count ending with a
        // radix-2 pass. The last stage, wherever it falls, carries the
        // n^{-1} scaling.
        NttTail<V>::inverse(a, n, w, w_shoup, m,
                            n == kChunk ? &scale : nullptr);
        size_t blocks = n / (2 * kChunk);
        for (; blocks >= 2; blocks /= 4)
            inverseRadix4(a, n, blocks, w, w_shoup, m,
                          blocks == 2 ? &scale : nullptr);
        if (blocks == 1)
            inverseLastStage(a, n, scale, m);
    }
};

/**
 * The dyadic residue loops: a vector body, then the scalar body on the
 * last n mod kLanes values. The multiplying ones take the scalar body
 * whole for moduli too wide for the 32-bit chains.
 */
template <class V>
struct Dyadic
{
    using Reg = typename V::Reg;
    using S = Shoup<V>;
    using Mod = typename S::Mod;

    static void
    addModOut(uint64_t *dst, const uint64_t *a, const uint64_t *b, size_t n,
              uint64_t q)
    {
        const Reg vq = V::set1(q);
        size_t j = 0;
        for (; j + V::kLanes <= n; j += V::kLanes)
            V::store(dst + j,
                     V::csub(V::add(V::load(a + j), V::load(b + j)), vq));
        addModOutScalar(dst + j, a + j, b + j, n - j, q);
    }

    static void
    subModOut(uint64_t *dst, const uint64_t *a, const uint64_t *b, size_t n,
              uint64_t q)
    {
        const Reg vq = V::set1(q);
        size_t j = 0;
        for (; j + V::kLanes <= n; j += V::kLanes)
            V::store(dst + j, V::subMod(V::load(a + j), V::load(b + j), vq));
        subModOutScalar(dst + j, a + j, b + j, n - j, q);
    }

    static void
    negateMod(uint64_t *a, size_t n, uint64_t q)
    {
        const Reg vq = V::set1(q);
        size_t j = 0;
        for (; j + V::kLanes <= n; j += V::kLanes)
            V::store(a + j, V::negMod(V::load(a + j), vq));
        negateModScalar(a + j, n - j, q);
    }

    static void
    mulShoupOut(uint64_t *dst, const uint64_t *src, size_t n,
                const rns::Modulus &q, uint64_t w, uint64_t w_shoup)
    {
        if (!eligibleModulus(q.value())) {
            mulShoupOutScalar(dst, src, n, q, w, w_shoup);
            return;
        }
        const Reg vq = V::set1(q.value());
        const Reg vw = V::set1(w);
        const Reg vphi = V::set1(w_shoup >> 32);
        size_t j = 0;
        for (; j + V::kLanes <= n; j += V::kLanes) {
            const Reg r = S::mulLazy(V::load(src + j), vw, vphi, vq);
            V::store(dst + j, V::csub(r, vq));
        }
        mulShoupOutScalar(dst + j, src + j, n - j, q, w, w_shoup);
    }

    /** One prime's Barrett constants: q and mu in every lane, k. */
    struct Barrett
    {
        Reg q, mu;
        int bits;
    };

    static Barrett
    barrett(const rns::Modulus &q)
    {
        const Mod32Constants m = mod32Constants(q);
        return {V::set1(m.q), V::set1(m.mu), m.bits};
    }

    /** a * b mod q, canonical, for a, b < q < 2^30: three mul32s. */
    static Reg
    mulMod(Reg a, Reg b, const Barrett &m)
    {
        const Reg x = V::mul32(a, b);
        const Reg quot =
            V::srl(V::mul32(V::srl(x, m.bits - 1), m.mu), m.bits + 1);
        const Reg r = V::sub(x, V::mul32(quot, m.q)); // [0, 3q)
        return V::csub(V::csub(r, m.q), m.q);
    }

    static void
    mulModOut(uint64_t *dst, const uint64_t *a, const uint64_t *b, size_t n,
              const rns::Modulus &q)
    {
        if (!eligibleModulus(q.value())) {
            mulModOutScalar(dst, a, b, n, q);
            return;
        }
        const Barrett m = barrett(q);
        size_t j = 0;
        for (; j + V::kLanes <= n; j += V::kLanes)
            V::store(dst + j, mulMod(V::load(a + j), V::load(b + j), m));
        mulModOutScalar(dst + j, a + j, b + j, n - j, q);
    }

    static void
    macMod(uint64_t *acc, const uint64_t *a, const uint64_t *b, size_t n,
           const rns::Modulus &q)
    {
        if (!eligibleModulus(q.value())) {
            macModScalar(acc, a, b, n, q);
            return;
        }
        const Barrett m = barrett(q);
        size_t j = 0;
        for (; j + V::kLanes <= n; j += V::kLanes) {
            const Reg p = mulMod(V::load(a + j), V::load(b + j), m);
            V::store(acc + j, V::csub(V::add(V::load(acc + j), p), m.q));
        }
        macModScalar(acc + j, a + j, b + j, n - j, q);
    }

    static void
    reduceU32(uint64_t *dst, const uint64_t *src, size_t n,
              const rns::Modulus &q)
    {
        if (!eligibleModulus(q.value())) {
            reduceU32Scalar(dst, src, n, q);
            return;
        }
        const Mod m = S::lanes(mod32Constants(q));
        size_t j = 0;
        for (; j + V::kLanes <= n; j += V::kLanes) {
            const Reg r = S::reduceLazy32(V::load(src + j), m);
            V::store(dst + j, V::csub(r, m.q));
        }
        reduceU32Scalar(dst + j, src + j, n - j, q);
    }
};

/**
 * The NTT-domain automorphism (Kernels::automorph_ntt): per vector, the
 * aligned source block its blockwise map names (isBlockwiseMap), one
 * load and one lane permute. Degrees below kLanes run the scalar
 * gather.
 */
template <class V>
struct Automorph
{
    static void
    ntt(uint64_t *out, const uint64_t *in, const uint32_t *map, size_t n)
    {
        if (n < V::kLanes) {
            automorphNttScalar(out, in, map, n);
            return;
        }
        constexpr uint32_t kBlock = ~uint32_t(V::kLanes - 1);
        for (size_t j = 0; j < n; j += V::kLanes)
            V::store(out + j,
                     V::permute(V::load(in + (map[j] & kBlock)), map + j));
    }
};

/** The fused HPS kernels (Kernels::hps_convert / hps_scale). */
template <class V>
struct Hps
{
    using Reg = typename V::Reg;
    using S = Shoup<V>;
    using Mod = typename S::Mod;

    /** Products an accumulator takes between folds. */
    static constexpr size_t kFoldTerms = 15;

    /** round(sum_i x[i] * w[i] / 2^f), x < 2^32, w <= 2^60, f in
     *  [33, 96); exact. */
    static Reg
    roundedSum(const Reg *x, const uint64_t *w, size_t terms, int f)
    {
        Reg m = V::set1(0);
        Reg a = V::set1(0);
        for (size_t i = 0; i < terms; ++i) {
            const Reg lo = V::mul32(x[i], V::set1(w[i]));
            m = V::add(m, V::add(V::mul32(x[i], V::set1(w[i] >> 32)),
                                 V::srl32(lo)));
            a = V::add(a, V::lo32(lo));
        }
        const Reg half = V::set1(uint64_t(1) << (f - 33));
        return V::srl(V::add(V::add(m, V::srl32(a)), half), f - 32);
    }

    /** (acc + sum_i x[i] * w[i]) mod q, canonical; acc < 2^36 and x,
     *  w < 2^30. */
    static Reg
    dot(Reg acc, const Reg *x, const uint64_t *w, size_t terms,
        const Mod32Constants &mc)
    {
        const Mod m = S::lanes(mc);
        for (size_t i0 = 0; i0 < terms; i0 += kFoldTerms) {
            if (i0 != 0)
                acc = S::reduceLazy64(acc, m);
            const size_t end = std::min(terms, i0 + kFoldTerms);
            for (size_t i = i0; i < end; ++i)
                acc = V::add(acc, V::mul32(x[i], V::set1(w[i])));
        }
        return V::csub(S::reduceLazy64(acc, m), m.q);
    }

    /**
     * Convert one vector: @p x holds the source residues and is
     * overwritten with the lambdas; emit(j, residue) receives each
     * destination residue in order.
     */
    template <class Emit>
    static void
    convert(const HpsConvertPlan &plan, Reg *x, Emit &&emit)
    {
        const size_t kq = plan.from_size;
        for (size_t i = 0; i < kq; ++i) {
            const Reg q = V::set1(plan.from_mod[i].q);
            x[i] = V::csub(S::mulLazy(x[i], V::set1(plan.tilde[i]),
                                      V::set1(plan.tilde_phi[i]), q),
                           q);
        }
        const Reg v =
            roundedSum(x, plan.recip.data(), kq, plan.frac_bits);
        for (size_t j = 0; j < plan.to_size; ++j) {
            const uint64_t *w = plan.weights.data() + j * (kq + 1);
            emit(j, dot(V::mul32(v, V::set1(w[kq])), x, w, kq,
                        plan.to_mod[j]));
        }
    }

    static void
    convertRows(const HpsConvertPlan &plan, const uint64_t *const *in_rows,
                uint64_t *const *out_rows, size_t begin, size_t end)
    {
        Reg x[kHpsMaxTerms];
        for (size_t c = begin; c + V::kLanes <= end; c += V::kLanes) {
            for (size_t i = 0; i < plan.from_size; ++i)
                x[i] = V::load(in_rows[i] + c);
            convert(plan, x, [&](size_t j, Reg r) {
                V::store(out_rows[j] + c, r);
            });
        }
    }

    static void
    scaleRows(const HpsScalePlan &plan, const HpsConvertPlan *back,
              const uint64_t *const *in_rows, uint64_t *const *out_rows,
              uint64_t *const *broadcast_rows, size_t begin, size_t end)
    {
        const size_t kq = plan.q_size;
        // x: the q residues then, per output prime, its own p residue.
        Reg x[kHpsMaxTerms];
        Reg y[kHpsMaxTerms];
        for (size_t c = begin; c + V::kLanes <= end; c += V::kLanes) {
            for (size_t i = 0; i < kq; ++i)
                x[i] = V::load(in_rows[i] + c);
            // Block 1: the rounded fractional sum.
            const Reg r =
                roundedSum(x, plan.frac.data(), kq, plan.frac_bits);
            // Blocks 2-4 per p prime.
            for (size_t j = 0; j < plan.p_size; ++j) {
                x[kq] = V::load(in_rows[kq + j] + c);
                const Reg yj = dot(r, x, plan.weights.data() + j * (kq + 1),
                                   kq + 1, plan.p_mod[j]);
                if (back == nullptr)
                    V::store(out_rows[j] + c, yj);
                else
                    y[j] = yj;
            }
            if (back == nullptr)
                continue;
            // Block 5, and the digit broadcast at writeback.
            const size_t kb = back->to_size;
            convert(*back, y, [&](size_t d, Reg z) {
                V::store(out_rows[d] + c, z);
                if (broadcast_rows == nullptr)
                    return;
                for (size_t ch = 0; ch < kb; ++ch) {
                    const Mod m = S::lanes(back->to_mod[ch]);
                    V::store(broadcast_rows[d * kb + ch] + c,
                             V::csub(S::reduceLazy32(z, m), m.q));
                }
            });
        }
    }

    // A table's entries: pairs of V, then one V, then the scalar body
    // on the last coefficients. Pairs keep two independent dependency
    // chains in flight.

    static void
    convertBatch(const HpsConvertPlan &plan, const uint64_t *const *in_rows,
                 uint64_t *const *out_rows, size_t count)
    {
        const size_t pairs = count - count % Pair<V>::kLanes;
        const size_t body = count - count % V::kLanes;
        Hps<Pair<V>>::convertRows(plan, in_rows, out_rows, 0, pairs);
        convertRows(plan, in_rows, out_rows, pairs, body);
        hpsConvertScalar(plan, in_rows, out_rows, body, count);
    }

    static void
    scaleBatch(const HpsScalePlan &plan, const HpsConvertPlan *back,
               const uint64_t *const *in_rows, uint64_t *const *out_rows,
               uint64_t *const *broadcast_rows, size_t count)
    {
        const size_t pairs = count - count % Pair<V>::kLanes;
        const size_t body = count - count % V::kLanes;
        Hps<Pair<V>>::scaleRows(plan, back, in_rows, out_rows,
                                broadcast_rows, 0, pairs);
        scaleRows(plan, back, in_rows, out_rows, broadcast_rows, pairs,
                  body);
        hpsScaleScalar(plan, back, in_rows, out_rows, broadcast_rows, body,
                       count);
    }
};

/** The kernel table of lane type @p V, tagged @p level. */
template <class V>
Kernels
vectorKernels(Level level)
{
    return {
        .level = level,
        .ntt_forward = Ntt<V>::forward,
        .ntt_inverse = Ntt<V>::inverse,
        .add_mod_out = Dyadic<V>::addModOut,
        .sub_mod_out = Dyadic<V>::subModOut,
        .negate_mod = Dyadic<V>::negateMod,
        .mul_shoup_out = Dyadic<V>::mulShoupOut,
        .mul_mod_out = Dyadic<V>::mulModOut,
        .mac_mod = Dyadic<V>::macMod,
        .reduce_u32 = Dyadic<V>::reduceU32,
        .automorph_ntt = Automorph<V>::ntt,
        .hps_convert = Hps<V>::convertBatch,
        .hps_scale = Hps<V>::scaleBatch,
    };
}

} // namespace heat::simd::detail

#endif // HEAT_SIMD_VECTOR_KERNELS_H
