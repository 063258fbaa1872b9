/**
 * @file
 * End-to-end tests of the FV scheme: encryption round-trips, homomorphic
 * Add/Mult with both relinearization flavours, both arithmetic paths
 * (HPS vs exact CRT), depth chains, noise-budget behaviour and encoders.
 *
 * Most tests run on a scaled-down ring (n = 256) for speed; a smoke test
 * exercises the paper's full (n = 4096, 6+7 prime) parameter set.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include <memory>

#include "common/panic.h"
#include "fv/batch_encoder.h"
#include "fv/decryptor.h"
#include "fv/encoder.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/noise.h"
#include "fv/params.h"

namespace heat::fv {
namespace {

FvConfig
smallConfig(uint64_t t = 4)
{
    FvConfig config;
    config.degree = 256;
    config.plain_modulus = t;
    config.sigma = 3.2;
    config.q_prime_count = 3;
    config.p_prime_count = 0;
    return config;
}

/** Bundle of everything a test needs. */
struct Scheme
{
    explicit Scheme(std::shared_ptr<const FvParams> p, uint64_t seed = 42,
                    ArithPath path = ArithPath::kHps)
        : params(p),
          keygen(p, seed),
          sk(keygen.generateSecretKey()),
          pk(keygen.generatePublicKey(sk)),
          rlk(keygen.generateRelinKeys(sk)),
          encryptor(p, pk, seed + 1),
          decryptor(p, sk),
          evaluator(p, path)
    {
    }

    std::shared_ptr<const FvParams> params;
    KeyGenerator keygen;
    SecretKey sk;
    PublicKey pk;
    RelinKeys rlk;
    Encryptor encryptor;
    Decryptor decryptor;
    Evaluator evaluator;
};

Plaintext
somePlain(uint64_t t, size_t n, uint64_t seed)
{
    Xoshiro256 rng(seed);
    Plaintext p;
    p.coeffs.resize(n);
    for (auto &c : p.coeffs)
        c = rng.uniformBelow(t);
    return p;
}

/** Compare plaintexts ignoring trailing zeros. */
void
expectPlainEq(const Plaintext &a, const Plaintext &b, uint64_t t)
{
    const size_t n = std::max(a.coeffs.size(), b.coeffs.size());
    for (size_t i = 0; i < n; ++i) {
        uint64_t av = i < a.coeffs.size() ? a.coeffs[i] % t : 0;
        uint64_t bv = i < b.coeffs.size() ? b.coeffs[i] % t : 0;
        ASSERT_EQ(av, bv) << "coefficient " << i;
    }
}

TEST(FvParams, PaperParameterSet)
{
    auto params = FvParams::paper();
    EXPECT_EQ(params->degree(), 4096u);
    EXPECT_EQ(params->qBase()->size(), 6u);
    EXPECT_EQ(params->pBase()->size(), 7u);
    EXPECT_EQ(params->fullBase()->size(), 13u);
    // q is 180-bit, Q is 390-bit (thirteen 30-bit primes).
    EXPECT_EQ(params->qBits(), 180);
    EXPECT_EQ(params->fullBase()->product().bitLength(), 390);
    EXPECT_DOUBLE_EQ(params->sigma(), 102.0);
    // Paper claims >= 80-bit security for this set.
    EXPECT_GE(params->estimatedSecurityBits(), 50.0);
}

TEST(FvParams, DeltaTimesT)
{
    auto params = FvParams::create(smallConfig(7));
    // q - t*Delta = q mod t < t.
    mp::BigInt r = params->qBase()->product() -
                   params->delta() * mp::BigInt(7);
    EXPECT_LT(r, mp::BigInt(7));
    EXPECT_FALSE(r.isNegative());
}

TEST(FvParams, TableVRowsScale)
{
    for (int row = 0; row < 2; ++row) {
        auto params = FvParams::tableV(row);
        EXPECT_EQ(params->degree(), size_t(4096) << row);
        EXPECT_EQ(params->qBase()->size(), size_t(6) << row);
    }
}

TEST(Sampler, TernaryCoefficientsAreSigned)
{
    auto params = FvParams::create(smallConfig());
    Sampler sampler(params, 7);
    ntt::RnsPoly s = sampler.ternaryQ();
    for (size_t j = 0; j < params->degree(); ++j) {
        mp::BigInt c = s.coefficientCentered(j);
        EXPECT_LE(c.abs(), mp::BigInt(1)) << j;
    }
}

TEST(Sampler, GaussianMomentsRoughlyMatch)
{
    auto params = FvParams::create(smallConfig());
    Sampler sampler(params, 8);
    const int kSamples = 20000;
    double sum = 0, sum_sq = 0;
    for (int i = 0; i < kSamples; ++i) {
        double x = static_cast<double>(sampler.gaussianScalar());
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / kSamples;
    const double stddev = std::sqrt(sum_sq / kSamples - mean * mean);
    EXPECT_NEAR(mean, 0.0, 0.1);
    EXPECT_NEAR(stddev, params->sigma(), params->sigma() * 0.05);
}

TEST(Sampler, GaussianTailBounded)
{
    auto params = FvParams::create(smallConfig());
    Sampler sampler(params, 9);
    for (int i = 0; i < 20000; ++i)
        EXPECT_LE(std::abs(sampler.gaussianScalar()), sampler.tailBound());
}

TEST(FvScheme, EncryptDecryptRoundTrip)
{
    auto params = FvParams::create(smallConfig());
    Scheme s(params);
    Plaintext m = somePlain(4, 256, 1);
    Ciphertext ct = s.encryptor.encrypt(m);
    expectPlainEq(s.decryptor.decrypt(ct), m, 4);
}

TEST(FvScheme, FreshNoiseBudgetPositive)
{
    auto params = FvParams::create(smallConfig());
    Scheme s(params);
    Ciphertext ct = s.encryptor.encrypt(somePlain(4, 256, 2));
    EXPECT_GT(s.decryptor.invariantNoiseBudget(ct), 20.0);
}

TEST(FvScheme, HomomorphicAdd)
{
    const uint64_t t = 16;
    auto params = FvParams::create(smallConfig(t));
    Scheme s(params);
    Plaintext m0 = somePlain(t, 256, 3);
    Plaintext m1 = somePlain(t, 256, 4);
    Ciphertext ct = s.evaluator.add(s.encryptor.encrypt(m0),
                                    s.encryptor.encrypt(m1));
    Plaintext expect;
    expect.coeffs.resize(256);
    for (size_t i = 0; i < 256; ++i)
        expect.coeffs[i] = (m0.coeffs[i] + m1.coeffs[i]) % t;
    expectPlainEq(s.decryptor.decrypt(ct), expect, t);
}

TEST(FvScheme, HomomorphicSubAndNegate)
{
    const uint64_t t = 16;
    auto params = FvParams::create(smallConfig(t));
    Scheme s(params);
    Plaintext m0 = somePlain(t, 256, 5);
    Plaintext m1 = somePlain(t, 256, 6);
    Ciphertext ct = s.evaluator.sub(s.encryptor.encrypt(m0),
                                    s.encryptor.encrypt(m1));
    Plaintext expect;
    expect.coeffs.resize(256);
    for (size_t i = 0; i < 256; ++i)
        expect.coeffs[i] = (m0.coeffs[i] + t - m1.coeffs[i]) % t;
    expectPlainEq(s.decryptor.decrypt(ct), expect, t);

    Ciphertext neg = s.encryptor.encrypt(m0);
    s.evaluator.negateInPlace(neg);
    Plaintext expect_neg;
    expect_neg.coeffs.resize(256);
    for (size_t i = 0; i < 256; ++i)
        expect_neg.coeffs[i] = (t - m0.coeffs[i]) % t;
    expectPlainEq(s.decryptor.decrypt(neg), expect_neg, t);
}

/** Schoolbook negacyclic product of plaintexts mod t. */
Plaintext
plainMul(const Plaintext &a, const Plaintext &b, uint64_t t, size_t n)
{
    Plaintext c;
    c.coeffs.assign(n, 0);
    for (size_t i = 0; i < a.coeffs.size(); ++i) {
        for (size_t j = 0; j < b.coeffs.size(); ++j) {
            uint64_t p = a.coeffs[i] * b.coeffs[j] % t;
            size_t k = i + j;
            if (k < n) {
                c.coeffs[k] = (c.coeffs[k] + p) % t;
            } else {
                c.coeffs[k - n] = (c.coeffs[k - n] + t - p) % t;
            }
        }
    }
    return c;
}

class FvMultTest : public ::testing::TestWithParam<ArithPath>
{
};

TEST_P(FvMultTest, MultiplyNoRelinDecrypts)
{
    const uint64_t t = 4;
    auto params = FvParams::create(smallConfig(t));
    Scheme s(params, 42, GetParam());
    Plaintext m0 = somePlain(t, 256, 7);
    Plaintext m1 = somePlain(t, 256, 8);
    Ciphertext ct = s.evaluator.multiplyNoRelin(s.encryptor.encrypt(m0),
                                                s.encryptor.encrypt(m1));
    ASSERT_EQ(ct.size(), 3u);
    expectPlainEq(s.decryptor.decrypt(ct), plainMul(m0, m1, t, 256), t);
}

TEST_P(FvMultTest, MultiplyWithRnsRelinDecrypts)
{
    const uint64_t t = 4;
    auto params = FvParams::create(smallConfig(t));
    Scheme s(params, 43, GetParam());
    Plaintext m0 = somePlain(t, 256, 9);
    Plaintext m1 = somePlain(t, 256, 10);
    Ciphertext ct = s.evaluator.multiply(s.encryptor.encrypt(m0),
                                         s.encryptor.encrypt(m1), s.rlk);
    ASSERT_EQ(ct.size(), 2u);
    expectPlainEq(s.decryptor.decrypt(ct), plainMul(m0, m1, t, 256), t);
}

TEST_P(FvMultTest, MultiplyWithPositionalRelinDecrypts)
{
    const uint64_t t = 4;
    auto params = FvParams::create(smallConfig(t));
    Scheme s(params, 44, GetParam());
    RelinKeys rlk2 = s.keygen.generatePositionalRelinKeys(s.sk, 45);
    EXPECT_EQ(rlk2.digitCount(), 2u); // 90-bit q -> two 45-bit digits
    Plaintext m0 = somePlain(t, 256, 11);
    Plaintext m1 = somePlain(t, 256, 12);
    Ciphertext ct = s.evaluator.multiply(s.encryptor.encrypt(m0),
                                         s.encryptor.encrypt(m1), rlk2);
    expectPlainEq(s.decryptor.decrypt(ct), plainMul(m0, m1, t, 256), t);
}

TEST_P(FvMultTest, DepthChainOfSquarings)
{
    // t = 2, message x^3 + 1; squaring keeps coefficients binary.
    const uint64_t t = 2;
    FvConfig config = smallConfig(t);
    config.q_prime_count = 5; // extra depth room
    auto params = FvParams::create(config);
    Scheme s(params, 46, GetParam());

    Plaintext m;
    m.coeffs = {1, 0, 0, 1};
    Ciphertext ct = s.encryptor.encrypt(m);
    Plaintext expect = m;
    for (int depth = 1; depth <= 3; ++depth) {
        ct = s.evaluator.square(ct, s.rlk);
        expect = plainMul(expect, expect, t, 256);
        ASSERT_GT(s.decryptor.invariantNoiseBudget(ct), 0.0)
            << "depth " << depth;
        expectPlainEq(s.decryptor.decrypt(ct), expect, t);
    }
}

INSTANTIATE_TEST_SUITE_P(Paths, FvMultTest,
                         ::testing::Values(ArithPath::kHps,
                                           ArithPath::kExactCrt));

TEST(FvScheme, HpsAndExactPathsAgreeOnPlaintext)
{
    const uint64_t t = 4;
    auto params = FvParams::create(smallConfig(t));
    Scheme hps(params, 47, ArithPath::kHps);
    Evaluator exact(params, ArithPath::kExactCrt);

    Plaintext m0 = somePlain(t, 256, 13);
    Plaintext m1 = somePlain(t, 256, 14);
    Ciphertext a = hps.encryptor.encrypt(m0);
    Ciphertext b = hps.encryptor.encrypt(m1);
    Ciphertext c_hps = hps.evaluator.multiply(a, b, hps.rlk);
    Ciphertext c_exact = exact.multiply(a, b, hps.rlk);
    // The two paths may differ by tiny rounding noise but must decrypt
    // identically.
    expectPlainEq(hps.decryptor.decrypt(c_hps),
                  hps.decryptor.decrypt(c_exact), t);
}

TEST(FvScheme, NoiseBudgetDecreasesMonotonically)
{
    const uint64_t t = 2;
    auto params = FvParams::create(smallConfig(t));
    Scheme s(params, 48);
    Plaintext m;
    m.coeffs = {1, 1};
    Ciphertext ct = s.encryptor.encrypt(m);
    double budget = s.decryptor.invariantNoiseBudget(ct);
    for (int i = 0; i < 2; ++i) {
        ct = s.evaluator.square(ct, s.rlk);
        double next = s.decryptor.invariantNoiseBudget(ct);
        EXPECT_LT(next, budget);
        budget = next;
    }
}

TEST(FvScheme, AddPlainAndMultiplyPlain)
{
    const uint64_t t = 16;
    auto params = FvParams::create(smallConfig(t));
    Scheme s(params, 49);
    Plaintext m0 = somePlain(t, 256, 15);
    Plaintext m1 = somePlain(t, 256, 16);

    Ciphertext ct = s.encryptor.encrypt(m0);
    s.evaluator.addPlainInPlace(ct, m1);
    Plaintext expect;
    expect.coeffs.resize(256);
    for (size_t i = 0; i < 256; ++i)
        expect.coeffs[i] = (m0.coeffs[i] + m1.coeffs[i]) % t;
    expectPlainEq(s.decryptor.decrypt(ct), expect, t);

    Ciphertext ct2 = s.evaluator.multiplyPlain(s.encryptor.encrypt(m0), m1);
    expectPlainEq(s.decryptor.decrypt(ct2), plainMul(m0, m1, t, 256), t);
}

TEST(FvScheme, DeterministicWithSeed)
{
    auto params = FvParams::create(smallConfig());
    Scheme s1(params, 50), s2(params, 50);
    Plaintext m = somePlain(4, 256, 17);
    Ciphertext c1 = s1.encryptor.encrypt(m);
    Ciphertext c2 = s2.encryptor.encrypt(m);
    EXPECT_EQ(c1[0], c2[0]);
    EXPECT_EQ(c1[1], c2[1]);
}

TEST(IntegerEncoder, EncodeDecodeRoundTrip)
{
    auto params = FvParams::create(smallConfig(16));
    IntegerEncoder encoder(params);
    // Base t = 16 is even: -8 takes the digit t/2 (8 - 16), which must
    // not be written as -t/2 (it would decode as +8).
    for (int64_t v : {int64_t(0), int64_t(1), int64_t(-1), int64_t(255),
                      int64_t(-255), int64_t(-8), int64_t(123456789),
                      INT64_MIN, INT64_MAX}) {
        EXPECT_EQ(encoder.decode(encoder.encode(v)), mp::BigInt(v)) << v;
    }
}

TEST(IntegerEncoder, SmallBaseRoundTrip)
{
    auto params = FvParams::create(smallConfig(65537));
    IntegerEncoder encoder(params, 3);
    EXPECT_EQ(encoder.base(), 3u);
    for (int64_t v : {int64_t(0), int64_t(7), int64_t(-19),
                      int64_t(1000000), INT64_MIN, INT64_MAX}) {
        EXPECT_EQ(encoder.decode(encoder.encode(v)), mp::BigInt(v)) << v;
    }
    // Base 2 has no negative balanced digit: negative values take the
    // digits {0, -1} (the old loop never ended for them).
    IntegerEncoder binary(params, 2);
    for (int64_t v : {int64_t(-1), int64_t(-5), int64_t(-64), int64_t(37),
                      INT64_MIN, INT64_MAX}) {
        const Plaintext plain = binary.encode(v);
        EXPECT_LE(plain.coeffs.size(), 64u) << v;
        EXPECT_EQ(binary.decode(plain), mp::BigInt(v)) << v;
        EXPECT_EQ(binary.decodeInt64(plain), v) << v;
    }
    // The digit count is bounded by the ring degree.
    IntegerEncoder tiny(FvParams::create([] {
                            FvConfig c = smallConfig(65537);
                            c.degree = 8;
                            return c;
                        }()),
                        2);
    EXPECT_EQ(tiny.decodeInt64(tiny.encode(-255)), -255);
    EXPECT_THROW(tiny.encode(-256), FatalError);
}

TEST(IntegerEncoder, HomomorphicIntegerArithmetic)
{
    // Base-2 digits in a large plain modulus leave room for the digit
    // growth of sums and products.
    const uint64_t t = 65537;
    auto params = FvParams::create(smallConfig(t));
    Scheme s(params, 51);
    IntegerEncoder encoder(params, 2);

    Ciphertext a = s.encryptor.encrypt(encoder.encode(37));
    Ciphertext b = s.encryptor.encrypt(encoder.encode(95));
    Ciphertext sum = s.evaluator.add(a, b);
    EXPECT_EQ(encoder.decodeInt64(s.decryptor.decrypt(sum)), 37 + 95);

    Ciphertext prod = s.evaluator.multiply(a, b, s.rlk);
    EXPECT_EQ(encoder.decodeInt64(s.decryptor.decrypt(prod)), 37 * 95);
}

TEST(BatchEncoder, EncodeDecodeRoundTrip)
{
    FvConfig config = smallConfig(65537); // 65537 = 1 mod 512
    auto params = FvParams::create(config);
    BatchEncoder encoder(params);
    std::vector<uint64_t> slots(encoder.slotCount());
    Xoshiro256 rng(52);
    for (auto &v : slots)
        v = rng.uniformBelow(65537);
    EXPECT_EQ(encoder.decode(encoder.encode(slots)), slots);
}

TEST(BatchEncoder, SlotwiseHomomorphicOps)
{
    FvConfig config = smallConfig(65537);
    config.q_prime_count = 4;
    auto params = FvParams::create(config);
    Scheme s(params, 53);
    BatchEncoder encoder(params);

    std::vector<uint64_t> va(encoder.slotCount()), vb(encoder.slotCount());
    Xoshiro256 rng(54);
    for (size_t i = 0; i < va.size(); ++i) {
        va[i] = rng.uniformBelow(65537);
        vb[i] = rng.uniformBelow(65537);
    }
    Ciphertext a = s.encryptor.encrypt(encoder.encode(va));
    Ciphertext b = s.encryptor.encrypt(encoder.encode(vb));

    auto sum = encoder.decode(s.decryptor.decrypt(s.evaluator.add(a, b)));
    auto prod = encoder.decode(
        s.decryptor.decrypt(s.evaluator.multiply(a, b, s.rlk)));
    for (size_t i = 0; i < va.size(); ++i) {
        EXPECT_EQ(sum[i], (va[i] + vb[i]) % 65537) << i;
        EXPECT_EQ(prod[i], va[i] * vb[i] % 65537) << i;
    }
}

TEST(BatchEncoder, RejectsUnsuitableModulus)
{
    auto params = FvParams::create(smallConfig(4));
    EXPECT_THROW(BatchEncoder{params}, FatalError);
}

TEST(NoiseModel, PredictsPaperDepth)
{
    // The paper sizes (4096, 180-bit q, sigma 102) for depth up to 4.
    NoiseModel model(FvParams::paper(2));
    EXPECT_GE(model.supportedDepth(), 3);
    EXPECT_LE(model.supportedDepth(), 12);
    EXPECT_GT(model.freshBudgetBits(), 0.0);
    EXPECT_GT(model.budgetAfterDepth(1), model.budgetAfterDepth(2));
}

TEST(NoiseModel, RoughlyMatchesMeasuredFreshBudget)
{
    auto params = FvParams::create(smallConfig(2));
    Scheme s(params, 55);
    NoiseModel model(params);
    Ciphertext ct = s.encryptor.encrypt(somePlain(2, 256, 18));
    double measured = s.decryptor.invariantNoiseBudget(ct);
    EXPECT_NEAR(model.freshBudgetBits(), measured, 12.0);
}

TEST(FvSchemePaper, FullParameterSetSmoke)
{
    // End-to-end on the paper's real parameter set: one Add, one Mult.
    const uint64_t t = 2;
    auto params = FvParams::paper(t);
    Scheme s(params, 56);
    Plaintext m0 = somePlain(t, 4096, 19);
    Plaintext m1 = somePlain(t, 4096, 20);

    Ciphertext a = s.encryptor.encrypt(m0);
    Ciphertext b = s.encryptor.encrypt(m1);

    Plaintext expect_sum;
    expect_sum.coeffs.resize(4096);
    for (size_t i = 0; i < 4096; ++i)
        expect_sum.coeffs[i] = (m0.coeffs[i] + m1.coeffs[i]) % t;
    expectPlainEq(s.decryptor.decrypt(s.evaluator.add(a, b)), expect_sum,
                  t);

    Ciphertext prod = s.evaluator.multiply(a, b, s.rlk);
    expectPlainEq(s.decryptor.decrypt(prod), plainMul(m0, m1, t, 4096), t);
    EXPECT_GT(s.decryptor.invariantNoiseBudget(prod), 0.0);
}

} // namespace
} // namespace heat::fv
