/**
 * @file
 * Differential tests for the SIMD kernel layer: every vector kernel
 * must be bit-identical to the scalar table on random inputs, on
 * lazy-range edge values, and on moduli too wide for the 32-bit lane
 * paths (where the kernels must fall back to scalar internally). The
 * suite enumerates every level the host and build support, so on an
 * AVX-512 machine it exercises scalar vs AVX2 vs AVX-512.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
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
 * the elementwise kernels (Barrett handles any modulus). */
const uint64_t kWidthModuli[] = {
    (uint64_t(1) << 20) - 3,  // 20-bit — vector path
    (uint64_t(1) << 30) - 35, // 30-bit boundary — scalar fallback
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

TEST(SimdKernels, WidePrecisionPrimitivesMatchScalar)
{
    Xoshiro256 rng(11);
    const Kernels &scalar = simd::kernelsFor(Level::kScalar);
    for (Level level : availableLevels()) {
        const Kernels &vec = simd::kernelsFor(level);
        for (size_t count : {size_t(13), size_t(256), size_t(1000)}) {
            for (size_t terms : {size_t(1), size_t(5), simd::kSopMaxTerms}) {
                // sop128 contract: values < 2^30, weights <= 2^60.
                std::vector<std::vector<uint64_t>> data(terms);
                std::vector<const uint64_t *> rows(terms);
                std::vector<uint64_t> weights(terms);
                for (size_t i = 0; i < terms; ++i) {
                    data[i].resize(count);
                    for (auto &x : data[i])
                        x = rng.uniformBelow(uint64_t(1) << 30);
                    rows[i] = data[i].data();
                    weights[i] =
                        rng.uniformBelow((uint64_t(1) << 60) + 1);
                }
                if (!data.empty() && count > 0) {
                    data[0][0] = (uint64_t(1) << 30) - 1; // edge lane
                    weights[0] = uint64_t(1) << 60;
                }
                std::vector<uint64_t> lo_s(count), hi_s(count);
                std::vector<uint64_t> lo_v(count), hi_v(count);
                scalar.sop128(rows.data(), weights.data(), terms, count,
                              lo_s.data(), hi_s.data());
                vec.sop128(rows.data(), weights.data(), terms, count,
                           lo_v.data(), hi_v.data());
                EXPECT_EQ(lo_s, lo_v) << simd::levelName(level);
                EXPECT_EQ(hi_s, hi_v) << simd::levelName(level);

                // add128_64 on the sop outputs.
                std::vector<uint64_t> add(count);
                for (auto &x : add)
                    x = rng.next();
                auto lo2 = lo_s, hi2 = hi_s;
                scalar.add128_64(lo_s.data(), hi_s.data(), add.data(),
                                 count);
                vec.add128_64(lo2.data(), hi2.data(), add.data(), count);
                EXPECT_EQ(lo_s, lo2);
                EXPECT_EQ(hi_s, hi2);

                // round_shift128 across representative shifts; keep hi
                // small enough that the shifted result fits 64 bits.
                for (int shift : {1, 59, 60, 61, 64, 89, 127}) {
                    std::vector<uint64_t> lo(count), hi(count);
                    std::vector<uint64_t> out_s(count), out_v(count);
                    const int hi_bits = std::min(shift - 1, 32);
                    for (size_t c = 0; c < count; ++c) {
                        lo[c] = rng.next();
                        hi[c] = hi_bits == 0
                                    ? 0
                                    : rng.uniformBelow(uint64_t(1)
                                                       << hi_bits);
                    }
                    scalar.round_shift128(lo.data(), hi.data(), count,
                                          shift, out_s.data());
                    vec.round_shift128(lo.data(), hi.data(), count,
                                       shift, out_v.data());
                    EXPECT_EQ(out_s, out_v) << "shift=" << shift;
                }

                // reduce128_mod (hi < 2^32 contract) at narrow and wide
                // moduli — wide must fall back to scalar internally.
                for (uint64_t qv : kWidthModuli) {
                    const Modulus q(qv);
                    std::vector<uint64_t> lo(count), hi(count);
                    std::vector<uint64_t> out_s(count), out_v(count);
                    for (size_t c = 0; c < count; ++c) {
                        lo[c] = rng.next();
                        hi[c] = rng.uniformBelow(uint64_t(1) << 32);
                    }
                    scalar.reduce128_mod(lo.data(), hi.data(),
                                         out_s.data(), count, q);
                    vec.reduce128_mod(lo.data(), hi.data(), out_v.data(),
                                      count, q);
                    EXPECT_EQ(out_s, out_v) << "q=" << qv;
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

TEST(SimdBatch, ScaleBatchMatchesPerCoefficientScale)
{
    Xoshiro256 rng(37);
    const size_t degree = 4096;
    auto primes = rns::generateNttPrimes(30, degree, 7);
    const rns::RnsBase q_base(
        std::vector<uint64_t>(primes.begin(), primes.begin() + 3));
    const rns::RnsBase p_base(
        std::vector<uint64_t>(primes.begin() + 3, primes.end()));
    const rns::ScaleRounder rounder(q_base, p_base, 65537);

    const size_t kq = q_base.size();
    const size_t kp = p_base.size();
    const size_t count = 777; // odd length exercises the lane tails
    std::vector<std::vector<uint64_t>> in(kq + kp);
    std::vector<const uint64_t *> in_rows(kq + kp);
    for (size_t i = 0; i < kq + kp; ++i) {
        in[i].resize(count);
        const uint64_t qi = i < kq ? q_base.modulus(i).value()
                                   : p_base.modulus(i - kq).value();
        for (auto &x : in[i])
            x = rng.uniformBelow(qi);
        in_rows[i] = in[i].data();
    }

    std::vector<uint64_t> expect_in(kq + kp), expect_out(kp);
    std::vector<std::vector<uint64_t>> expect(kp,
                                              std::vector<uint64_t>(count));
    for (size_t c = 0; c < count; ++c) {
        for (size_t i = 0; i < kq + kp; ++i)
            expect_in[i] = in[i][c];
        rounder.scale(expect_in, expect_out);
        for (size_t j = 0; j < kp; ++j)
            expect[j][c] = expect_out[j];
    }

    LevelGuard guard;
    for (Level level : availableLevels()) {
        simd::setLevel(level);
        std::vector<std::vector<uint64_t>> got(
            kp, std::vector<uint64_t>(count));
        std::vector<uint64_t *> out_rows(kp);
        for (size_t j = 0; j < kp; ++j)
            out_rows[j] = got[j].data();
        rounder.scaleBatch(in_rows.data(), out_rows.data(), count);
        for (size_t j = 0; j < kp; ++j)
            EXPECT_EQ(expect[j], got[j])
                << simd::levelName(level) << " j=" << j;
    }
}

TEST(SimdBatch, ConvertBatchMatchesPerCoefficientConvert)
{
    Xoshiro256 rng(41);
    const size_t degree = 4096;
    auto primes = rns::generateNttPrimes(30, degree, 6);
    const rns::RnsBase from(
        std::vector<uint64_t>(primes.begin(), primes.begin() + 3));
    const rns::RnsBase to(
        std::vector<uint64_t>(primes.begin() + 3, primes.end()));
    const rns::FastBaseConverter conv(from, to);

    const size_t kq = from.size();
    const size_t kb = to.size();
    const size_t count = 513;
    std::vector<std::vector<uint64_t>> in(kq);
    std::vector<const uint64_t *> in_rows(kq);
    for (size_t i = 0; i < kq; ++i) {
        in[i].resize(count);
        for (auto &x : in[i])
            x = rng.uniformBelow(from.modulus(i).value());
        in_rows[i] = in[i].data();
    }

    std::vector<uint64_t> expect_in(kq), expect_out(kb);
    std::vector<std::vector<uint64_t>> expect(kb,
                                              std::vector<uint64_t>(count));
    for (size_t c = 0; c < count; ++c) {
        for (size_t i = 0; i < kq; ++i)
            expect_in[i] = in[i][c];
        conv.convert(expect_in, expect_out);
        for (size_t j = 0; j < kb; ++j)
            expect[j][c] = expect_out[j];
    }

    LevelGuard guard;
    for (Level level : availableLevels()) {
        simd::setLevel(level);
        std::vector<std::vector<uint64_t>> got(
            kb, std::vector<uint64_t>(count));
        std::vector<uint64_t *> out_rows(kb);
        for (size_t j = 0; j < kb; ++j)
            out_rows[j] = got[j].data();
        conv.convertBatch(in_rows.data(), out_rows.data(), count);
        for (size_t j = 0; j < kb; ++j)
            EXPECT_EQ(expect[j], got[j])
                << simd::levelName(level) << " j=" << j;
    }
}

} // namespace
} // namespace heat
