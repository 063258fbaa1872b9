/**
 * @file
 * The fused HPS kernels (Kernels::hps_convert / hps_scale), written
 * once over a lane type and instantiated by each kernel table's
 * translation unit under its own ISA flags. Internal; include
 * simd/simd.h instead.
 *
 * A lane type V holds 64-bit lanes and provides: Reg, kLanes, load,
 * store, set1, add, sub, mul32 (low 32 x low 32 bits -> 64), srl32
 * (>> 32), srl (>> a run-time count), lo32 (& 2^32 - 1) and csub
 * (x >= k ? x - k : x for x, k < 2^63). Each table defines its lane
 * type in an anonymous namespace, so every instantiation stays in the
 * translation unit whose flags compiled it. Each table runs Pair<V>,
 * two registers per step, for two independent dependency chains in
 * flight, then single registers, then the scalar tail.
 *
 * Range arguments, all primes < 2^30 (kLaneModulusBound):
 *  - lambda_i = Shoup(x_i * q~_i) is canonical, < 2^30.
 *  - round(sum_i x_i w_i / 2^f) with w_i <= 2^60 splits each weight
 *    into 32-bit halves: M = sum x_i w_hi + sum (x_i w_lo >> 32) <=
 *    32 * 2^58 + 32 * 2^30 and A = sum (x_i w_lo mod 2^32) < 2^37, so
 *    sum = 2^32 (M + (A >> 32)) + (A mod 2^32) and the rounded
 *    quotient is (M + (A >> 32) + 2^(f-33)) >> (f - 32), with no
 *    128-bit carry anywhere and nothing past 2^64.
 *  - every output sum starts below 2^36 (v' * weight or the rounded
 *    scale term, both < 32 * 2^30) and adds products < 2^60; fifteen
 *    of them stay below 2^64, so the accumulator is folded into
 *    [0, 2q) every kFoldTerms products and reduced once at the end.
 */

#ifndef HEAT_SIMD_HPS_KERNELS_H
#define HEAT_SIMD_HPS_KERNELS_H

#include <algorithm>

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

template <class V>
struct Hps
{
    using Reg = typename V::Reg;

    /** Products an accumulator takes between folds. */
    static constexpr size_t kFoldTerms = 15;

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
    mulShoupLazy(Reg a, Reg w, Reg phi, Reg q)
    {
        const Reg quot = V::srl32(V::mul32(a, phi));
        return V::sub(V::mul32(a, w), V::mul32(quot, q));
    }

    /** s mod q into [0, 2q) for s < 2^32. */
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
        const Reg hi = mulShoupLazy(V::srl32(x), m.c32, m.phi_c32, m.q);
        const Reg lo = reduceLazy32(V::lo32(x), m);
        return reduceLazy32(V::add(hi, lo), m); // < 4q < 2^32
    }

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
        const Mod m = lanes(mc);
        for (size_t i0 = 0; i0 < terms; i0 += kFoldTerms) {
            if (i0 != 0)
                acc = reduceLazy64(acc, m);
            const size_t end = std::min(terms, i0 + kFoldTerms);
            for (size_t i = i0; i < end; ++i)
                acc = V::add(acc, V::mul32(x[i], V::set1(w[i])));
        }
        return V::csub(reduceLazy64(acc, m), m.q);
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
            x[i] = V::csub(mulShoupLazy(x[i], V::set1(plan.tilde[i]),
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
                    const Mod m = lanes(back->to_mod[ch]);
                    V::store(broadcast_rows[d * kb + ch] + c,
                             V::csub(reduceLazy32(z, m), m.q));
                }
            });
        }
    }

    // A table's entries: pairs of V, then one V, then the scalar body
    // on the last coefficients.

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

} // namespace heat::simd::detail

#endif // HEAT_SIMD_HPS_KERNELS_H
