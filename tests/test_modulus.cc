/**
 * @file
 * Tests for word-sized modular arithmetic: Barrett reduction, Shoup
 * multiplication and the paper's sliding-window reduction, checked
 * against each other and against plain % over large random sweeps.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "rns/modulus.h"
#include "rns/prime_gen.h"

namespace heat::rns {
namespace {

class ModulusParamTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ModulusParamTest, ReduceMatchesPercent)
{
    Modulus m(GetParam());
    Xoshiro256 rng(GetParam());
    for (int iter = 0; iter < 5000; ++iter) {
        uint64_t x = rng.next();
        EXPECT_EQ(m.reduce(x), x % m.value());
    }
    for (uint64_t x : {uint64_t(0), m.value() - 1, m.value(),
                       UINT64_MAX - m.value(), UINT64_MAX})
        EXPECT_EQ(m.reduce(x), x % m.value());
}

TEST_P(ModulusParamTest, Reduce128MatchesReference)
{
    Modulus m(GetParam());
    Xoshiro256 rng(GetParam() + 1);
    for (int iter = 0; iter < 5000; ++iter) {
        uint128_t x = (uint128_t(rng.next()) << 64) | rng.next();
        uint64_t expect = static_cast<uint64_t>(x % m.value());
        EXPECT_EQ(m.reduce128(x), expect);
    }
}

TEST_P(ModulusParamTest, MulMatchesInt128)
{
    Modulus m(GetParam());
    Xoshiro256 rng(GetParam() + 2);
    for (int iter = 0; iter < 5000; ++iter) {
        uint64_t a = rng.uniformBelow(m.value());
        uint64_t b = rng.uniformBelow(m.value());
        uint64_t expect =
            static_cast<uint64_t>(uint128_t(a) * b % m.value());
        EXPECT_EQ(m.mul(a, b), expect);
    }
}

TEST_P(ModulusParamTest, ShoupMatchesMul)
{
    Modulus m(GetParam());
    Xoshiro256 rng(GetParam() + 3);
    for (int iter = 0; iter < 2000; ++iter) {
        uint64_t w = rng.uniformBelow(m.value());
        uint64_t w_shoup = m.shoupPrecompute(w);
        for (int k = 0; k < 5; ++k) {
            uint64_t a = rng.uniformBelow(m.value());
            EXPECT_EQ(m.mulShoup(a, w, w_shoup), m.mul(a, w));
        }
    }
}

TEST_P(ModulusParamTest, ShoupPrecomputeMatchesDivision)
{
    Modulus m(GetParam());
    Xoshiro256 rng(GetParam() + 5);
    std::vector<uint64_t> ws = {0, 1, m.value() / 2, m.value() - 1};
    for (int iter = 0; iter < 2000; ++iter)
        ws.push_back(rng.uniformBelow(m.value()));
    // Inverses of powers of two (the NTT's n^-1) put w * 2^64 / q just
    // above an integer, where a Barrett quotient is one short.
    for (uint64_t k = 2; k <= (uint64_t(1) << 20); k *= 2)
        if (k % m.value() != 0)
            ws.push_back(m.inverse(k % m.value()));
    for (uint64_t w : ws)
        EXPECT_EQ(m.shoupPrecompute(w),
                  static_cast<uint64_t>((uint128_t(w) << 64) / m.value()))
            << "w = " << w;
}

TEST_P(ModulusParamTest, AddSubNegate)
{
    Modulus m(GetParam());
    Xoshiro256 rng(GetParam() + 4);
    for (int iter = 0; iter < 2000; ++iter) {
        uint64_t a = rng.uniformBelow(m.value());
        uint64_t b = rng.uniformBelow(m.value());
        EXPECT_EQ(m.add(a, b), (a + b) % m.value());
        EXPECT_EQ(m.sub(a, b), (a + m.value() - b) % m.value());
        EXPECT_EQ(m.add(m.sub(a, b), b), a);
        EXPECT_EQ(m.add(a, m.negate(a)), 0u);
    }
}

TEST_P(ModulusParamTest, PowAndInverse)
{
    Modulus m(GetParam());
    Xoshiro256 rng(GetParam() + 5);
    EXPECT_EQ(m.pow(0, 0), 1u);
    for (int iter = 0; iter < 200; ++iter) {
        uint64_t a = rng.uniformBelow(m.value() - 1) + 1;
        uint64_t inv = m.inverse(a);
        EXPECT_EQ(m.mul(a, inv), 1u);
        // Fermat's little theorem for prime modulus.
        EXPECT_EQ(m.pow(a, m.value() - 1), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Primes, ModulusParamTest,
    ::testing::Values(
        // 30-bit NTT-friendly primes (the paper's size).
        uint64_t(1073479681), uint64_t(1072496641),
        // small primes
        uint64_t(17), uint64_t(257), uint64_t(65537),
        // larger primes up to the supported 62-bit bound
        uint64_t(4611686018427387847ull)));

class SlidingWindowTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SlidingWindowTest, MatchesBarrettOnProducts)
{
    Modulus m(GetParam());
    Xoshiro256 rng(99);
    for (int iter = 0; iter < 20000; ++iter) {
        uint64_t a = rng.uniformBelow(m.value());
        uint64_t b = rng.uniformBelow(m.value());
        uint64_t x = a * b; // < 2^60
        EXPECT_EQ(m.slidingWindowReduce(x), x % m.value());
    }
}

TEST_P(SlidingWindowTest, EdgeValues)
{
    Modulus m(GetParam());
    for (uint64_t x : {uint64_t(0), uint64_t(1), m.value() - 1, m.value(),
                       m.value() + 1, 2 * m.value(),
                       (uint64_t(1) << 60) - 1}) {
        EXPECT_EQ(m.slidingWindowReduce(x), x % m.value()) << x;
    }
}

TEST_P(SlidingWindowTest, TableContents)
{
    Modulus m(GetParam());
    const auto &table = m.reductionTable();
    for (uint64_t w = 0; w < 64; ++w)
        EXPECT_EQ(table[w], (w << 30) % m.value());
}

INSTANTIATE_TEST_SUITE_P(
    ThirtyBitPrimes, SlidingWindowTest,
    ::testing::Values(uint64_t(1073479681), uint64_t(1072496641),
                      uint64_t(1071513601), uint64_t(536903681),
                      uint64_t(557057)));

TEST(PrimeGen, GeneratesNttFriendlyPrimes)
{
    auto primes = generateNttPrimes(30, 4096, 13);
    ASSERT_EQ(primes.size(), 13u);
    for (uint64_t p : primes) {
        EXPECT_EQ(bitLength(p), 30);
        EXPECT_EQ((p - 1) % 8192, 0u) << p;
    }
    // Decreasing and distinct.
    for (size_t i = 1; i < primes.size(); ++i)
        EXPECT_LT(primes[i], primes[i - 1]);
}

TEST(PrimeGen, PrimitiveRootProperties)
{
    for (size_t n : {size_t(256), size_t(4096)}) {
        auto primes = generateNttPrimes(30, n, 2);
        for (uint64_t p : primes) {
            uint64_t psi = findPrimitiveRoot(p, n);
            Modulus m(p);
            // psi^n = -1 and psi^2n = 1.
            EXPECT_EQ(m.pow(psi, n), p - 1);
            EXPECT_EQ(m.pow(psi, 2 * n), 1u);
        }
    }
}

TEST(PrimeGen, EnoughPrimesForTableV)
{
    // The largest Table V row needs 48 + 49 thirty-bit primes congruent
    // to 1 mod 2^16.
    auto primes = generateNttPrimes(30, 32768, 97);
    EXPECT_EQ(primes.size(), 97u);
}

} // namespace
} // namespace heat::rns
