/**
 * @file
 * Differential tests for the SIMD kernel layer: every vector kernel
 * must be bit-identical to the scalar table on random inputs, on
 * lazy-range edge values, and on moduli too wide for the 32-bit lane
 * paths (where the kernels must fall back to scalar internally). The
 * fused HPS kernels are held to the per-coefficient convert()/scale()
 * and to the exact BigInt conversion and scale. The suite enumerates
 * every level the host and build support, so on an AVX-512 machine it
 * exercises scalar vs AVX2 vs AVX-512.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fv/params.h"
#include "ntt/ntt.h"
#include "ntt/ntt_tables.h"
#include "rns/base_convert.h"
#include "rns/modulus.h"
#include "rns/prime_gen.h"
#include "rns/rns_base.h"
#include "rns/scale_round.h"
#include "simd/simd.h"

namespace heat {
namespace {

using rns::Modulus;
using simd::Kernels;
using simd::Level;

std::vector<Level>
availableLevels()
{
    std::vector<Level> levels{Level::kScalar};
    if (simd::detectedLevel() >= Level::kAvx2)
        levels.push_back(Level::kAvx2);
    if (simd::detectedLevel() >= Level::kAvx512)
        levels.push_back(Level::kAvx512);
    return levels;
}

/** Restores the process-wide dispatch level on scope exit. */
struct LevelGuard
{
    Level saved = simd::activeLevel();
    ~LevelGuard() { simd::setLevel(saved); }
};

/** Fixed odd moduli per required width; primality is irrelevant for
 * the elementwise kernels (Barrett handles any modulus). The two
 * around 2^30 straddle eligibleModulus; "scalar fallback" is that of
 * the multiplying kernels (add, sub and negate vectorize any width). */
const uint64_t kWidthModuli[] = {
    (uint64_t(1) << 20) - 3,  // 20-bit — vector path
    (uint64_t(1) << 30) - 35, // 30-bit, below the bound — vector path
    (uint64_t(1) << 30) + 3,  // 31-bit, just past the bound — scalar fallback
    (uint64_t(1) << 50) - 27, // 50-bit — scalar fallback
    (uint64_t(1) << 60) - 93, // 60-bit — scalar fallback
    (uint64_t(1) << 62) - 57, // 62-bit, Modulus's ceiling
};

const size_t kVectorLengths[] = {0,  1,  3,   7,    8,    9,   15,
                                 16, 31, 100, 1000, 4099, 8192};

TEST(SimdDispatch, LevelsRoundTripAndClamp)
{
    LevelGuard guard;
    for (Level level : availableLevels()) {
        simd::setLevel(level);
        EXPECT_EQ(simd::activeLevel(), level) << simd::levelName(level);
        EXPECT_EQ(simd::active().level, level);
        EXPECT_EQ(simd::kernelsFor(level).level, level);
    }
    // Requests above the detected level clamp down instead of failing.
    simd::setLevel(Level::kAvx512);
    EXPECT_LE(simd::activeLevel(), simd::detectedLevel());
}

TEST(SimdDispatch, EligibilityBound)
{
    EXPECT_TRUE(simd::eligibleModulus(simd::kLaneModulusBound - 1));
    EXPECT_FALSE(simd::eligibleModulus(simd::kLaneModulusBound));
}

TEST(SimdKernels, ElementwiseMatchScalarEverywhere)
{
    Xoshiro256 rng(7);
    const Kernels &scalar = simd::kernelsFor(Level::kScalar);
    for (Level level : availableLevels()) {
        const Kernels &vec = simd::kernelsFor(level);
        for (uint64_t qv : kWidthModuli) {
            const Modulus q(qv);
            const uint64_t w = rng.uniformBelow(qv);
            const uint64_t w_shoup = q.shoupPrecompute(w);
            for (size_t n : kVectorLengths) {
                std::vector<uint64_t> a(n), b(n), src32(n);
                for (size_t i = 0; i < n; ++i) {
                    a[i] = rng.uniformBelow(qv);
                    b[i] = rng.uniformBelow(qv);
                    src32[i] = rng.uniformBelow(uint64_t(1) << 32);
                }
                // Edge values: both operands at q-1 in the first lanes.
                if (n >= 2) {
                    a[0] = qv - 1;
                    b[0] = qv - 1;
                    a[1] = 0;
                    b[1] = 0;
                }

                auto diff = [&](auto &&run) {
                    auto x = a;
                    auto y = a;
                    run(scalar, x.data());
                    run(vec, y.data());
                    EXPECT_EQ(x, y) << simd::levelName(level)
                                    << " q=" << qv << " n=" << n;
                };
                diff([&](const Kernels &k, uint64_t *p) {
                    k.add_mod(p, b.data(), n, qv);
                });
                diff([&](const Kernels &k, uint64_t *p) {
                    k.sub_mod(p, b.data(), n, qv);
                });
                diff([&](const Kernels &k, uint64_t *p) {
                    k.negate_mod(p, n, qv);
                });
                diff([&](const Kernels &k, uint64_t *p) {
                    k.mul_shoup(p, n, q, w, w_shoup);
                });
                diff([&](const Kernels &k, uint64_t *p) {
                    k.mul_mod(p, b.data(), n, q);
                });
                diff([&](const Kernels &k, uint64_t *p) {
                    k.mac_mod(p, b.data(), b.data(), n, q);
                });
                diff([&](const Kernels &k, uint64_t *p) {
                    k.mul_shoup_out(p, b.data(), n, q, w, w_shoup);
                });
                diff([&](const Kernels &k, uint64_t *p) {
                    k.reduce_u32(p, src32.data(), n, q);
                });
            }
        }
    }
}

TEST(SimdKernels, OutOfPlaceDyadicMatchOracleUnderAliasing)
{
    // add/sub/mul_mod_out against per-element 128-bit arithmetic, with
    // dst distinct from the operands, equal to a and equal to b: a
    // prime below 2^30 takes the vector body, 2^30 + 3 (prime) and a
    // 60-bit modulus the scalar fallback. The lengths leave every lane
    // count's loop tail non-empty.
    const uint64_t moduli[] = {(uint64_t(1) << 20) - 3,
                               (uint64_t(1) << 30) - 35,
                               (uint64_t(1) << 30) + 3,
                               (uint64_t(1) << 60) - 93};
    const size_t lengths[] = {1, 3, 5, 7, 9, 13, 17, 4099};
    enum class Alias
    {
        kNone,
        kDstIsA,
        kDstIsB
    };
    Xoshiro256 rng(29);
    for (Level level : availableLevels()) {
        const Kernels &k = simd::kernelsFor(level);
        for (uint64_t qv : moduli) {
            const Modulus q(qv);
            for (size_t n : lengths) {
                std::vector<uint64_t> a(n), b(n);
                for (size_t i = 0; i < n; ++i) {
                    a[i] = rng.uniformBelow(qv);
                    b[i] = rng.uniformBelow(qv);
                }
                a[0] = qv - 1;
                b[0] = n > 1 ? qv - 1 : 0;
                std::vector<uint64_t> add(n), sub(n), mul(n);
                for (size_t i = 0; i < n; ++i) {
                    add[i] = (a[i] + b[i]) % qv;
                    sub[i] = (a[i] + qv - b[i]) % qv;
                    mul[i] = static_cast<uint64_t>(
                        static_cast<unsigned __int128>(a[i]) * b[i] % qv);
                }
                for (Alias alias :
                     {Alias::kNone, Alias::kDstIsA, Alias::kDstIsB}) {
                    const auto check = [&](auto &&run,
                                           const std::vector<uint64_t> &want,
                                           const char *op) {
                        std::vector<uint64_t> x = a, y = b, d(n, 7);
                        uint64_t *dst = alias == Alias::kDstIsA   ? x.data()
                                        : alias == Alias::kDstIsB ? y.data()
                                                                  : d.data();
                        run(dst, x.data(), y.data());
                        EXPECT_EQ(std::vector<uint64_t>(dst, dst + n), want)
                            << op << " " << simd::levelName(level)
                            << " q=" << qv << " n=" << n << " alias="
                            << static_cast<int>(alias);
                        if (alias != Alias::kDstIsA) {
                            EXPECT_EQ(x, a) << op << ": a was written";
                        }
                        if (alias != Alias::kDstIsB) {
                            EXPECT_EQ(y, b) << op << ": b was written";
                        }
                    };
                    check([&](uint64_t *d, const uint64_t *x,
                              const uint64_t *y) {
                        k.add_mod_out(d, x, y, n, qv);
                    }, add, "add_mod_out");
                    check([&](uint64_t *d, const uint64_t *x,
                              const uint64_t *y) {
                        k.sub_mod_out(d, x, y, n, qv);
                    }, sub, "sub_mod_out");
                    check([&](uint64_t *d, const uint64_t *x,
                              const uint64_t *y) {
                        k.mul_mod_out(d, x, y, n, q);
                    }, mul, "mul_mod_out");
                }
            }
        }
    }
}

/**
 * Every power-of-two degree from 8 (below the AVX-512 chunk: its
 * scalar fallback) to 16384. Odd log2 degrees take the vector
 * kernels' leftover radix-2 pass, even ones radix-4 passes only.
 */
std::vector<size_t>
nttDegrees()
{
    std::vector<size_t> degrees;
    for (size_t n = 8; n <= 16384; n *= 2)
        degrees.push_back(n);
    return degrees;
}

/**
 * NTT prime widths per degree: 30 bits yields the largest 30-bit NTT
 * prime, just under the 2^30 lane bound (the vector paths' widest
 * modulus); 31 bits and up must fall back to scalar inside the kernel.
 */
const int kNttPrimeBits[] = {20, 30, 31, 50, 60};

/**
 * Runs @p kernel of every available level on @p input and expects the
 * scalar oracle's output bit for bit.
 */
template <typename Oracle, typename Kernel>
void
expectNttMatchesOracle(const std::vector<uint64_t> &input,
                       const ntt::NttTables &tables, Oracle oracle,
                       Kernel kernel, const char *what)
{
    auto expect = input;
    oracle(expect, tables);
    for (Level level : availableLevels()) {
        auto got = input;
        kernel(simd::kernelsFor(level), got.data(), tables);
        EXPECT_EQ(expect, got)
            << what << " " << simd::levelName(level)
            << " n=" << tables.degree()
            << " q=" << tables.modulus().value();
    }
}

TEST(SimdKernels, ForwardNttMatchesScalarOracle)
{
    Xoshiro256 rng(23);
    const auto oracle = [](std::vector<uint64_t> &a,
                           const ntt::NttTables &t) {
        ntt::forwardNttScalar(a, t);
    };
    const auto kernel = [](const Kernels &k, uint64_t *a,
                           const ntt::NttTables &t) {
        k.ntt_forward(a, t);
    };
    for (size_t degree : nttDegrees()) {
        for (int bits : kNttPrimeBits) {
            const uint64_t qv =
                rns::generateNttPrimes(bits, degree, 1)[0];
            ASSERT_EQ(simd::eligibleModulus(qv), bits <= 30);
            const Modulus q(qv);
            const ntt::NttTables tables(q, degree);
            // Forward accepts Harvey-lazy inputs: exercise the full
            // [0, 4q) range plus the exact boundary values.
            std::vector<uint64_t> input(degree);
            for (auto &x : input)
                x = rng.uniformBelow(4 * qv);
            input[0] = 4 * qv - 1;
            input[1] = 2 * qv;
            input[2] = 2 * qv - 1;
            input[3] = qv;
            input[4] = qv - 1;
            input[5] = 0;
            expectNttMatchesOracle(input, tables, oracle, kernel,
                                   "random");
            // Every coefficient at the top of the lazy range.
            expectNttMatchesOracle(
                std::vector<uint64_t>(degree, 4 * qv - 1), tables,
                oracle, kernel, "all-max");
        }
    }
}

TEST(SimdKernels, InverseNttMatchesScalarOracle)
{
    Xoshiro256 rng(29);
    const auto oracle = [](std::vector<uint64_t> &a,
                           const ntt::NttTables &t) {
        ntt::inverseNttScalar(a, t);
    };
    const auto kernel = [](const Kernels &k, uint64_t *a,
                           const ntt::NttTables &t) {
        k.ntt_inverse(a, t);
    };
    for (size_t degree : nttDegrees()) {
        for (int bits : kNttPrimeBits) {
            const uint64_t qv =
                rns::generateNttPrimes(bits, degree, 1)[0];
            ASSERT_EQ(simd::eligibleModulus(qv), bits <= 30);
            const Modulus q(qv);
            const ntt::NttTables tables(q, degree);
            // Inverse contract: inputs in [0, 2q).
            std::vector<uint64_t> input(degree);
            for (auto &x : input)
                x = rng.uniformBelow(2 * qv);
            input[0] = 2 * qv - 1;
            input[1] = qv;
            input[2] = qv - 1;
            input[3] = 0;
            expectNttMatchesOracle(input, tables, oracle, kernel,
                                   "random");
            // Every coefficient at the top of the lazy range.
            expectNttMatchesOracle(
                std::vector<uint64_t>(degree, 2 * qv - 1), tables,
                oracle, kernel, "all-max");
        }
    }
}

TEST(SimdKernels, NttRoundTripThroughDispatch)
{
    LevelGuard guard;
    Xoshiro256 rng(31);
    const size_t degree = 1024;
    const uint64_t qv = rns::generateNttPrimes(30, degree, 1)[0];
    const ntt::NttTables tables(Modulus(qv), degree);
    std::vector<uint64_t> input(degree);
    for (auto &x : input)
        x = rng.uniformBelow(qv);
    for (Level level : availableLevels()) {
        simd::setLevel(level);
        auto a = input;
        ntt::forwardNtt(a, tables);
        ntt::inverseNtt(a, tables);
        EXPECT_EQ(a, input) << simd::levelName(level);
    }
}

/** Residue rows of one base: rows[i][c] < moduli[i]. */
using Rows = std::vector<std::vector<uint64_t>>;

/**
 * @p count coefficients over @p base: coefficients 0-7 are 0 in every
 * residue, 8-15 are q_i - 1 in every residue, 16-23 alternate the two
 * by residue and the rest are random. The edge blocks fill every lane
 * of both vector widths.
 */
Rows
hpsInput(const rns::RnsBase &base, size_t count, Xoshiro256 &rng)
{
    Rows rows(base.size(), std::vector<uint64_t>(count));
    for (size_t i = 0; i < base.size(); ++i) {
        const uint64_t q = base.modulus(i).value();
        for (size_t c = 0; c < count; ++c) {
            if (c < 8)
                rows[i][c] = 0;
            else if (c < 16)
                rows[i][c] = q - 1;
            else if (c < 24)
                rows[i][c] = (c + i) % 2 == 0 ? 0 : q - 1;
            else
                rows[i][c] = rng.uniformBelow(q);
        }
    }
    return rows;
}

std::vector<const uint64_t *>
constRows(const Rows &rows)
{
    std::vector<const uint64_t *> out;
    for (const auto &r : rows)
        out.push_back(r.data());
    return out;
}

std::vector<uint64_t *>
mutRows(Rows &rows)
{
    std::vector<uint64_t *> out;
    for (auto &r : rows)
        out.push_back(r.data());
    return out;
}

/** Runs @p one on every coefficient of @p in: the per-coefficient
 *  oracle, gathered and scattered. */
template <typename One>
Rows
perCoefficient(const Rows &in, size_t out_size, One one)
{
    const size_t count = in.empty() ? 0 : in[0].size();
    Rows out(out_size, std::vector<uint64_t>(count));
    std::vector<uint64_t> x(in.size()), y(out_size);
    for (size_t c = 0; c < count; ++c) {
        for (size_t i = 0; i < in.size(); ++i)
            x[i] = in[i][c];
        one(x, y);
        for (size_t j = 0; j < out_size; ++j)
            out[j][c] = y[j];
    }
    return out;
}

/** Not multiples of either lane width, around the vector boundary. */
const size_t kHpsCounts[] = {1, 5, 9, 24, 31, 517};

/** @p n consecutive 30-bit NTT primes for n = 4096, split q | p. */
std::pair<rns::RnsBase, rns::RnsBase>
splitPrimes(size_t kq, size_t kp)
{
    const auto primes = rns::generateNttPrimes(30, 4096, kq + kp);
    return {rns::RnsBase(std::vector<uint64_t>(primes.begin(),
                                               primes.begin() + kq)),
            rns::RnsBase(std::vector<uint64_t>(primes.begin() + kq,
                                               primes.end()))};
}

/**
 * hps_convert of every available level equals the per-coefficient
 * convert() and the exact CRT conversion, bit for bit.
 */
void
expectConvertMatches(const rns::FastBaseConverter &conv, uint64_t seed,
                     const std::string &what)
{
    const simd::HpsConvertPlan *plan = conv.batchPlan();
    ASSERT_NE(plan, nullptr) << what << " must take the fused path";
    Xoshiro256 rng(seed);
    const size_t kb = conv.toBase().size();
    for (size_t count : kHpsCounts) {
        const Rows in = hpsInput(conv.fromBase(), count, rng);
        const Rows expect = perCoefficient(
            in, kb, [&](const std::vector<uint64_t> &x,
                        std::vector<uint64_t> &y) { conv.convert(x, y); });
        EXPECT_EQ(expect, perCoefficient(in, kb,
                                         [&](const std::vector<uint64_t> &x,
                                             std::vector<uint64_t> &y) {
                                             conv.convertExact(x, y);
                                         }))
            << what << " count=" << count;
        for (Level level : availableLevels()) {
            Rows got(kb, std::vector<uint64_t>(count));
            simd::kernelsFor(level).hps_convert(
                *plan, constRows(in).data(), mutRows(got).data(), count);
            EXPECT_EQ(expect, got) << what << " " << simd::levelName(level)
                                   << " count=" << count;
        }
    }
}

/**
 * hps_scale of every available level equals the per-coefficient
 * scale() and the exact BigInt scale; chained into @p back (when
 * given), it equals scale() then convert(), and its digit broadcast
 * the per-coefficient reductions.
 */
void
expectScaleMatches(const rns::ScaleRounder &rounder,
                   const rns::FastBaseConverter *back, uint64_t seed,
                   const std::string &what)
{
    const simd::HpsScalePlan *plan = rounder.batchPlan();
    ASSERT_NE(plan, nullptr) << what << " must take the fused path";
    const simd::HpsConvertPlan *back_plan =
        back != nullptr ? back->batchPlan() : nullptr;
    ASSERT_EQ(back_plan == nullptr, back == nullptr) << what;
    Xoshiro256 rng(seed);
    const rns::RnsBase full =
        rns::RnsBase::concat(rounder.qBase(), rounder.pBase());
    const size_t kp = rounder.pBase().size();
    const size_t kb = back != nullptr ? back->toBase().size() : kp;
    for (size_t count : kHpsCounts) {
        const Rows in = hpsInput(full, count, rng);
        const Rows scaled = perCoefficient(
            in, kp, [&](const std::vector<uint64_t> &x,
                        std::vector<uint64_t> &y) { rounder.scale(x, y); });
        EXPECT_EQ(scaled, perCoefficient(in, kp,
                                         [&](const std::vector<uint64_t> &x,
                                             std::vector<uint64_t> &y) {
                                             rounder.scaleExact(x, y);
                                         }))
            << what << " count=" << count;
        Rows expect = scaled;
        Rows digits;
        if (back != nullptr) {
            expect = perCoefficient(
                scaled, kb,
                [&](const std::vector<uint64_t> &x,
                    std::vector<uint64_t> &y) { back->convert(x, y); });
            for (size_t d = 0; d < kb; ++d)
                for (size_t ch = 0; ch < kb; ++ch) {
                    digits.emplace_back(count);
                    for (size_t c = 0; c < count; ++c)
                        digits.back()[c] =
                            back->toBase().modulus(ch).reduce(expect[d][c]);
                }
        }
        for (Level level : availableLevels()) {
            Rows got(kb, std::vector<uint64_t>(count));
            Rows got_digits(digits.size(), std::vector<uint64_t>(count));
            simd::kernelsFor(level).hps_scale(
                *plan, back_plan, constRows(in).data(), mutRows(got).data(),
                back != nullptr ? mutRows(got_digits).data() : nullptr,
                count);
            EXPECT_EQ(expect, got) << what << " " << simd::levelName(level)
                                   << " count=" << count;
            EXPECT_EQ(digits, got_digits)
                << what << " " << simd::levelName(level)
                << " count=" << count;
        }
    }
}

TEST(SimdBatch, ConvertBatchMatchesPerCoefficientConvert)
{
    // Every level's lift and back converters of the paper set, at
    // t = 2 (the converters do not depend on t).
    const auto params = fv::FvParams::paper(2);
    for (size_t level = 0; level <= params->maxLevel(); ++level) {
        expectConvertMatches(params->liftConverter(level), 41 + level,
                             "lift level " + std::to_string(level));
        expectConvertMatches(params->scaleBackConverter(level), 43 + level,
                             "back level " + std::to_string(level));
    }
    // Table V rows 1-2: 12 and 24 q primes with 13 and 25 p primes;
    // sums past 15 terms fold their accumulator.
    for (size_t kq : {size_t(12), size_t(24)}) {
        const auto [q, p] = splitPrimes(kq, kq + 1);
        expectConvertMatches(rns::FastBaseConverter(q, p), kq,
                             "lift " + std::to_string(kq));
        expectConvertMatches(rns::FastBaseConverter(p, q), kq + 1,
                             "back " + std::to_string(kq));
    }
}

TEST(SimdBatch, ScaleBatchMatchesPerCoefficientScale)
{
    for (uint64_t t : {uint64_t(2), uint64_t(257), uint64_t(65537)}) {
        const auto params = fv::FvParams::paper(t);
        const std::string tag = "t=" + std::to_string(t);
        for (size_t level = 0; level <= params->maxLevel(); ++level) {
            const std::string at = tag + " level " + std::to_string(level);
            expectScaleMatches(params->scaler(level), nullptr, 47 + level,
                               "scale " + at);
            expectScaleMatches(params->scaler(level),
                               &params->scaleBackConverter(level),
                               53 + level, "scale+back " + at);
            if (level < params->maxLevel())
                expectScaleMatches(params->modSwitchRounder(level), nullptr,
                                   59 + level, "mod-switch " + at);
        }
        for (size_t kq : {size_t(12), size_t(24)}) {
            const auto [q, p] = splitPrimes(kq, kq + 1);
            const rns::ScaleRounder rounder(q, p, t);
            const rns::FastBaseConverter back(p, q);
            const std::string rows = tag + " kq=" + std::to_string(kq);
            expectScaleMatches(rounder, nullptr, kq, "scale " + rows);
            expectScaleMatches(rounder, &back, kq + 1, "scale+back " + rows);
        }
        // The largest sum the kernel takes: its all-(q_i - 1) inputs
        // pass 2^64 in an accumulator that never folds.
        const auto [q, p] = splitPrimes(simd::kHpsMaxTerms - 1, 4);
        expectScaleMatches(rns::ScaleRounder(q, p, t), nullptr, 67,
                           tag + " kq=31");
    }
}

TEST(SimdBatch, BatchCallsMatchPerCoefficientOnEveryLevel)
{
    // convertBatch / scaleBatch through the process-wide dispatcher,
    // including bases past the kernels' limits (a 31-bit prime, or a
    // q base over the term budget), which take the per-coefficient
    // path.
    const auto [q, p] = splitPrimes(3, 4);
    const auto wide = rns::generateNttPrimes(31, 4096, 1);
    const rns::RnsBase q_wide(std::vector<uint64_t>{
        q.modulus(0).value(), q.modulus(1).value(), wide[0]});
    const auto [q_big, p_big] = splitPrimes(simd::kHpsMaxTerms, 2);
    const rns::FastBaseConverter convs[] = {
        {q, p}, {q_wide, p}, {p, q_wide}};
    const rns::ScaleRounder rounders[] = {
        {q, p, 65537}, {q_wide, p, 65537}, {q_big, p_big, 2}};
    EXPECT_NE(convs[0].batchPlan(), nullptr);
    EXPECT_EQ(convs[1].batchPlan(), nullptr);
    EXPECT_EQ(convs[2].batchPlan(), nullptr);
    EXPECT_NE(rounders[0].batchPlan(), nullptr);
    EXPECT_EQ(rounders[1].batchPlan(), nullptr);
    EXPECT_EQ(rounders[2].batchPlan(), nullptr);

    Xoshiro256 rng(61);
    LevelGuard guard;
    for (const auto &conv : convs) {
        const Rows in = hpsInput(conv.fromBase(), 777, rng);
        const size_t kb = conv.toBase().size();
        const Rows expect = perCoefficient(
            in, kb, [&](const std::vector<uint64_t> &x,
                        std::vector<uint64_t> &y) { conv.convert(x, y); });
        for (Level level : availableLevels()) {
            simd::setLevel(level);
            Rows got(kb, std::vector<uint64_t>(777));
            conv.convertBatch(constRows(in).data(), mutRows(got).data(),
                              777);
            EXPECT_EQ(expect, got) << simd::levelName(level);
        }
    }
    for (const auto &rounder : rounders) {
        const rns::RnsBase full =
            rns::RnsBase::concat(rounder.qBase(), rounder.pBase());
        const Rows in = hpsInput(full, 777, rng);
        const size_t kp = rounder.pBase().size();
        const Rows expect = perCoefficient(
            in, kp, [&](const std::vector<uint64_t> &x,
                        std::vector<uint64_t> &y) { rounder.scale(x, y); });
        for (Level level : availableLevels()) {
            simd::setLevel(level);
            Rows got(kp, std::vector<uint64_t>(777));
            rounder.scaleBatch(constRows(in).data(), mutRows(got).data(),
                               777);
            EXPECT_EQ(expect, got) << simd::levelName(level);
        }
    }
    // A fused scale whose back converter is ineligible still matches.
    const rns::FastBaseConverter back_wide(p, q_wide);
    const Rows in = hpsInput(rns::RnsBase::concat(q, p), 777, rng);
    const Rows expect = perCoefficient(
        in, q_wide.size(),
        [&](const std::vector<uint64_t> &x, std::vector<uint64_t> &y) {
            std::vector<uint64_t> mid(p.size());
            rounders[0].scale(x, mid);
            back_wide.convert(mid, y);
        });
    Rows got(q_wide.size(), std::vector<uint64_t>(777));
    rounders[0].scaleBatch(constRows(in).data(), mutRows(got).data(), 777,
                           &back_wide);
    EXPECT_EQ(expect, got);
}

} // namespace
} // namespace heat
