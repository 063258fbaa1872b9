/**
 * @file
 * Tests for the negacyclic NTT and the RnsPoly container: transform
 * round-trips, convolution against the schoolbook reference, linearity,
 * and element-wise polynomial operations.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/panic.h"

#include "common/random.h"
#include "ntt/ntt.h"
#include "ntt/rns_poly.h"
#include "rns/prime_gen.h"

namespace heat::ntt {
namespace {

// --- Independent O(n log n) negacyclic reference ------------------------
//
// Used so ConvolutionMatchesSchoolbook can run at every parameterized
// degree (the schoolbook is quadratic and was skipped beyond n = 512).
// Shares nothing with the library's transform: recursive textbook
// Cooley-Tukey, plain 128-bit modular arithmetic, no tables, and its
// own primitive-root search. Cross-checked against the schoolbook at
// small degrees below.

uint64_t
mulMod(uint64_t a, uint64_t b, uint64_t q)
{
    return static_cast<uint64_t>(static_cast<unsigned __int128>(a) * b %
                                 q);
}

uint64_t
powMod(uint64_t base, uint64_t exp, uint64_t q)
{
    uint64_t r = 1;
    base %= q;
    for (; exp != 0; exp >>= 1) {
        if (exp & 1)
            r = mulMod(r, base, q);
        base = mulMod(base, base, q);
    }
    return r;
}

/** Smallest psi of order exactly 2n mod q (q prime, q = 1 mod 2n). */
uint64_t
findPsi(uint64_t q, size_t n)
{
    for (uint64_t g = 2;; ++g) {
        const uint64_t cand = powMod(g, (q - 1) / (2 * n), q);
        // psi^n == -1 forces order exactly 2n (n is a power of two).
        if (powMod(cand, n, q) == q - 1)
            return cand;
    }
}

/** Recursive radix-2 DFT mod q; omega is a primitive a.size()-th root. */
void
recursiveNtt(std::vector<uint64_t> &a, uint64_t omega, uint64_t q)
{
    const size_t n = a.size();
    if (n == 1)
        return;
    std::vector<uint64_t> even(n / 2), odd(n / 2);
    for (size_t i = 0; i < n / 2; ++i) {
        even[i] = a[2 * i];
        odd[i] = a[2 * i + 1];
    }
    const uint64_t omega2 = mulMod(omega, omega, q);
    recursiveNtt(even, omega2, q);
    recursiveNtt(odd, omega2, q);
    uint64_t w = 1;
    for (size_t i = 0; i < n / 2; ++i) {
        const uint64_t t = mulMod(w, odd[i], q);
        a[i] = (even[i] + t) % q;
        a[i + n / 2] = (even[i] + q - t) % q;
        w = mulMod(w, omega, q);
    }
}

/** Negacyclic a*b mod (x^n + 1, q) via the psi-weighted cyclic DFT. */
std::vector<uint64_t>
negacyclicMulFast(const std::vector<uint64_t> &a,
                  const std::vector<uint64_t> &b, uint64_t q)
{
    const size_t n = a.size();
    const uint64_t psi = findPsi(q, n);
    const uint64_t omega = mulMod(psi, psi, q);

    std::vector<uint64_t> fa(n), fb(n);
    uint64_t w = 1;
    for (size_t i = 0; i < n; ++i) {
        fa[i] = mulMod(a[i], w, q);
        fb[i] = mulMod(b[i], w, q);
        w = mulMod(w, psi, q);
    }
    recursiveNtt(fa, omega, q);
    recursiveNtt(fb, omega, q);
    for (size_t i = 0; i < n; ++i)
        fa[i] = mulMod(fa[i], fb[i], q);
    recursiveNtt(fa, powMod(omega, q - 2, q), q);

    const uint64_t inv_psi = powMod(psi, q - 2, q);
    w = powMod(n % q, q - 2, q); // 1/n, then 1/(n psi^i)
    for (size_t i = 0; i < n; ++i) {
        fa[i] = mulMod(fa[i], w, q);
        w = mulMod(w, inv_psi, q);
    }
    return fa;
}

class NttDegreeTest : public ::testing::TestWithParam<size_t>
{
  protected:
    rns::Modulus
    modulusFor(size_t n)
    {
        auto primes = rns::generateNttPrimes(30, n, 1);
        return rns::Modulus(primes[0]);
    }
};

TEST_P(NttDegreeTest, ForwardInverseRoundTrip)
{
    const size_t n = GetParam();
    rns::Modulus q = modulusFor(n);
    NttTables tables(q, n);
    Xoshiro256 rng(n);

    std::vector<uint64_t> a(n), orig(n);
    for (size_t i = 0; i < n; ++i)
        a[i] = orig[i] = rng.uniformBelow(q.value());
    forwardNtt(a, tables);
    inverseNtt(a, tables);
    EXPECT_EQ(a, orig);
}

TEST_P(NttDegreeTest, InverseForwardRoundTrip)
{
    const size_t n = GetParam();
    rns::Modulus q = modulusFor(n);
    NttTables tables(q, n);
    Xoshiro256 rng(n + 1);

    std::vector<uint64_t> a(n), orig(n);
    for (size_t i = 0; i < n; ++i)
        a[i] = orig[i] = rng.uniformBelow(q.value());
    inverseNtt(a, tables);
    forwardNtt(a, tables);
    EXPECT_EQ(a, orig);
}

TEST_P(NttDegreeTest, ConvolutionMatchesSchoolbook)
{
    const size_t n = GetParam();
    rns::Modulus q = modulusFor(n);
    NttTables tables(q, n);
    Xoshiro256 rng(n + 2);

    std::vector<uint64_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = rng.uniformBelow(q.value());
        b[i] = rng.uniformBelow(q.value());
    }
    const std::vector<uint64_t> expect =
        negacyclicMulFast(a, b, q.value());
    if (n <= 512) {
        // Validate the fast reference itself against the schoolbook
        // where the quadratic cost is affordable.
        std::vector<uint64_t> school(n);
        negacyclicMulReference(a, b, school, q);
        ASSERT_EQ(expect, school);
    }

    forwardNtt(a, tables);
    forwardNtt(b, tables);
    for (size_t i = 0; i < n; ++i)
        a[i] = q.mul(a[i], b[i]);
    inverseNtt(a, tables);
    EXPECT_EQ(a, expect);
}

TEST_P(NttDegreeTest, NegacyclicWraparound)
{
    // x^(n/2) * x^(n/2) = x^n = -1.
    const size_t n = GetParam();
    rns::Modulus q = modulusFor(n);
    NttTables tables(q, n);

    std::vector<uint64_t> a(n, 0), b(n, 0);
    a[n / 2] = 1;
    b[n / 2] = 1;
    forwardNtt(a, tables);
    forwardNtt(b, tables);
    for (size_t i = 0; i < n; ++i)
        a[i] = q.mul(a[i], b[i]);
    inverseNtt(a, tables);
    EXPECT_EQ(a[0], q.value() - 1);
    for (size_t i = 1; i < n; ++i)
        EXPECT_EQ(a[i], 0u) << i;
}

TEST_P(NttDegreeTest, Linearity)
{
    const size_t n = GetParam();
    rns::Modulus q = modulusFor(n);
    NttTables tables(q, n);
    Xoshiro256 rng(n + 3);

    std::vector<uint64_t> a(n), b(n), sum(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = rng.uniformBelow(q.value());
        b[i] = rng.uniformBelow(q.value());
        sum[i] = q.add(a[i], b[i]);
    }
    forwardNtt(a, tables);
    forwardNtt(b, tables);
    forwardNtt(sum, tables);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(sum[i], q.add(a[i], b[i]));
}

TEST_P(NttDegreeTest, ConstantPolynomialIsFixedPoint)
{
    // NTT of the constant c is c in every slot.
    const size_t n = GetParam();
    rns::Modulus q = modulusFor(n);
    NttTables tables(q, n);

    std::vector<uint64_t> a(n, 0);
    a[0] = 12345 % q.value();
    forwardNtt(a, tables);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(a[i], 12345 % q.value());
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttDegreeTest,
                         ::testing::Values(size_t(8), size_t(16),
                                           size_t(32), size_t(64),
                                           size_t(128), size_t(256),
                                           size_t(512), size_t(1024),
                                           size_t(2048), size_t(4096),
                                           size_t(8192)));

class RnsPolyTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto primes = rns::generateNttPrimes(30, kN, 3);
        base_ = std::make_shared<const rns::RnsBase>(primes);
        context_ = NttContext(*base_, kN);
    }

    static constexpr size_t kN = 256;
    std::shared_ptr<const rns::RnsBase> base_;
    NttContext context_;
};

TEST_F(RnsPolyTest, ZeroInitialized)
{
    RnsPoly p(base_, kN);
    for (size_t i = 0; i < p.residueCount(); ++i) {
        for (uint64_t x : p.residue(i))
            EXPECT_EQ(x, 0u);
    }
}

TEST_F(RnsPolyTest, AddSubInverse)
{
    Xoshiro256 rng(21);
    RnsPoly a(base_, kN), b(base_, kN);
    for (size_t i = 0; i < a.residueCount(); ++i) {
        for (size_t j = 0; j < kN; ++j) {
            a.residue(i)[j] = rng.uniformBelow(base_->modulus(i).value());
            b.residue(i)[j] = rng.uniformBelow(base_->modulus(i).value());
        }
    }
    RnsPoly c = a;
    c.addInPlace(b);
    c.subInPlace(b);
    EXPECT_EQ(c, a);
}

TEST_F(RnsPolyTest, NegateTwiceIsIdentity)
{
    Xoshiro256 rng(22);
    RnsPoly a(base_, kN);
    for (size_t i = 0; i < a.residueCount(); ++i) {
        for (size_t j = 0; j < kN; ++j)
            a.residue(i)[j] = rng.uniformBelow(base_->modulus(i).value());
    }
    RnsPoly b = a;
    b.negateInPlace();
    b.negateInPlace();
    EXPECT_EQ(b, a);
}

TEST_F(RnsPolyTest, NttMulMatchesSchoolbookPerResidue)
{
    Xoshiro256 rng(23);
    RnsPoly a(base_, kN), b(base_, kN);
    for (size_t i = 0; i < a.residueCount(); ++i) {
        for (size_t j = 0; j < kN; ++j) {
            a.residue(i)[j] = rng.uniformBelow(base_->modulus(i).value());
            b.residue(i)[j] = rng.uniformBelow(base_->modulus(i).value());
        }
    }
    // Schoolbook per residue.
    RnsPoly expect(base_, kN);
    for (size_t i = 0; i < a.residueCount(); ++i) {
        std::vector<uint64_t> out(kN);
        negacyclicMulReference(a.residue(i), b.residue(i), out,
                               base_->modulus(i));
        std::copy(out.begin(), out.end(), expect.residue(i).begin());
    }

    a.toNtt(context_);
    b.toNtt(context_);
    a.mulPointwiseInPlace(b);
    a.toCoeff(context_);
    EXPECT_EQ(a.data(), expect.data());
}

TEST_F(RnsPolyTest, GatherScatterRoundTrip)
{
    Xoshiro256 rng(24);
    RnsPoly a(base_, kN);
    for (size_t i = 0; i < a.residueCount(); ++i) {
        for (size_t j = 0; j < kN; ++j)
            a.residue(i)[j] = rng.uniformBelow(base_->modulus(i).value());
    }
    RnsPoly b(base_, kN);
    std::vector<uint64_t> buf(a.residueCount());
    for (size_t j = 0; j < kN; ++j) {
        a.gatherCoefficient(j, buf);
        b.scatterCoefficient(j, buf);
    }
    EXPECT_EQ(a, b);
}

TEST_F(RnsPolyTest, FromBigCoefficientsNegative)
{
    std::vector<mp::BigInt> coeffs = {mp::BigInt(-1), mp::BigInt(5),
                                      mp::BigInt(-100)};
    RnsPoly p = RnsPoly::fromBigCoefficients(base_, kN, coeffs);
    for (size_t i = 0; i < p.residueCount(); ++i) {
        const uint64_t q_i = base_->modulus(i).value();
        EXPECT_EQ(p.residue(i)[0], q_i - 1);
        EXPECT_EQ(p.residue(i)[1], 5u);
        EXPECT_EQ(p.residue(i)[2], q_i - 100);
    }
    EXPECT_EQ(p.coefficientCentered(0), mp::BigInt(-1));
    EXPECT_EQ(p.coefficientCentered(2), mp::BigInt(-100));
}

TEST_F(RnsPolyTest, MulScalarInPlace)
{
    Xoshiro256 rng(25);
    RnsPoly a(base_, kN);
    for (size_t i = 0; i < a.residueCount(); ++i) {
        for (size_t j = 0; j < kN; ++j)
            a.residue(i)[j] = rng.uniformBelow(base_->modulus(i).value());
    }
    // Scalar 1 leaves the polynomial unchanged; unit-vector scalar zeroes
    // all but one channel.
    RnsPoly b = a;
    std::vector<uint64_t> ones(a.residueCount(), 1);
    b.mulScalarInPlace(ones);
    EXPECT_EQ(b, a);

    std::vector<uint64_t> unit(a.residueCount(), 0);
    unit[1] = 1;
    b.mulScalarInPlace(unit);
    for (size_t i = 0; i < b.residueCount(); ++i) {
        for (size_t j = 0; j < kN; ++j) {
            EXPECT_EQ(b.residue(i)[j], i == 1 ? a.residue(i)[j] : 0u);
        }
    }
}

TEST_F(RnsPolyTest, FormMismatchPanics)
{
    RnsPoly a(base_, kN), b(base_, kN);
    a.toNtt(context_);
    EXPECT_THROW(a.addInPlace(b), PanicError);
    EXPECT_THROW(b.mulPointwiseInPlace(a), PanicError);
    EXPECT_THROW(a.toNtt(context_), PanicError);
}

} // namespace
} // namespace heat::ntt
