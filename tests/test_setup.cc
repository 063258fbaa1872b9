/**
 * @file
 * Set-up equals its definitions: the twiddle tables built by running
 * products against one power per entry, the shared per-prime tables of
 * every level, the branchless CDT search and the samplers against
 * plain reference samplers from the same seed, and fixed-seed digests
 * of tables, keys and ciphertexts, recorded from the one-power-per-entry
 * tables and per-element samplers these replace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bit_util.h"
#include "common/random.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "fv/sampler.h"
#include "mp/primality.h"
#include "ntt/ntt_tables.h"
#include "rns/prime_gen.h"

namespace heat::fv {
namespace {

uint64_t
shoupByDivision(uint64_t w, uint64_t q)
{
    return static_cast<uint64_t>((uint128_t(w) << 64) / q);
}

TEST(NttTablesBuild, EqualsPowerPerEntry)
{
    for (int bits : {20, 30, 50, 60}) {
        for (size_t n = 8; n <= 16384; n *= 2) {
            const uint64_t q = rns::generateNttPrimes(bits, n, 1)[0];
            const rns::Modulus modulus(q);
            const ntt::NttTables tables(modulus, n);
            const uint64_t psi = rns::findPrimitiveRoot(q, n);
            const uint64_t psi_inv = mp::powMod64(psi, q - 2, q);
            ASSERT_EQ(tables.psi(), psi);
            const int log_n = log2Floor(n);
            for (size_t i = 0; i < n; ++i) {
                const uint64_t e = reverseBits(i, log_n);
                const uint64_t root = mp::powMod64(psi, e, q);
                const uint64_t inv_root = mp::powMod64(psi_inv, e, q);
                ASSERT_EQ(tables.rootPower(i), root)
                    << bits << "-bit q, n = " << n << ", i = " << i;
                ASSERT_EQ(tables.rootPowerShoup(i), shoupByDivision(root, q))
                    << bits << "-bit q, n = " << n << ", i = " << i;
                ASSERT_EQ(tables.invRootPower(i), inv_root)
                    << bits << "-bit q, n = " << n << ", i = " << i;
                ASSERT_EQ(tables.invRootPowerShoup(i),
                          shoupByDivision(inv_root, q))
                    << bits << "-bit q, n = " << n << ", i = " << i;
            }
            const uint64_t inv_n = mp::powMod64(n % q, q - 2, q);
            EXPECT_EQ(tables.invDegree(), inv_n);
            EXPECT_EQ(tables.invDegreeShoup(), shoupByDivision(inv_n, q));
        }
    }
}

TEST(SharedTables, EveryLevelUsesTheFullContextTables)
{
    const auto params = FvParams::paper(2);
    const ntt::NttContext &full = params->fullContext();
    const size_t kq = params->qPrimeCount();
    const size_t kp = params->pBase()->size();
    ASSERT_EQ(full.size(), kq + kp);
    for (size_t level = 0; level <= params->maxLevel(); ++level) {
        const size_t live = params->qPrimeCount(level);
        const ntt::NttContext &q = params->qContext(level);
        const ntt::NttContext &fl = params->fullContext(level);
        ASSERT_EQ(q.size(), live);
        ASSERT_EQ(fl.size(), live + kp);
        for (size_t i = 0; i < live; ++i) {
            EXPECT_EQ(&q.tables(i), &full.tables(i)) << "level " << level;
            EXPECT_EQ(&fl.tables(i), &full.tables(i)) << "level " << level;
        }
        for (size_t j = 0; j < kp; ++j)
            EXPECT_EQ(&fl.tables(live + j), &full.tables(kq + j))
                << "level " << level;
    }
}

/** The smallest k with cdt[k] > u, by the standard library. */
size_t
binarySearchIndex(const std::vector<uint64_t> &cdt, uint64_t u)
{
    return static_cast<size_t>(
        std::upper_bound(cdt.begin(), cdt.end(), u) - cdt.begin());
}

TEST(GaussianCdt, SearchEqualsBinarySearchAtEveryEntry)
{
    for (double sigma : {3.2, 102.0}) {
        const GaussianCdt cdt(sigma);
        const std::vector<uint64_t> &entries = cdt.entries();
        const uint64_t top = uint64_t(1) << 63;
        ASSERT_EQ(entries.back(), top);
        for (uint64_t entry : entries) {
            for (uint64_t u : {entry - 1, entry, entry + 1}) {
                if (u >= top)
                    continue;
                ASSERT_EQ(cdt.search(u), binarySearchIndex(entries, u))
                    << "sigma " << sigma << ", u = " << u;
            }
        }
        EXPECT_EQ(cdt.search(0), binarySearchIndex(entries, 0));
        EXPECT_EQ(cdt.search(top - 1), binarySearchIndex(entries, top - 1));
    }
}

TEST(GaussianCdt, ScalarSamplesEqualBinarySearchOracle)
{
    const auto params = FvParams::paper(2);
    Sampler sampler(params, 2024);
    const GaussianCdt cdt(params->sigma());
    // The sampler's tail bound is the largest magnitude a draw can
    // return: ceil(12 * 102) = 1224, one less than the CDT's size.
    EXPECT_EQ(sampler.tailBound(), 1224);
    EXPECT_EQ(static_cast<size_t>(sampler.tailBound()) + 1,
              cdt.entries().size());
    Xoshiro256 rng(2024);
    for (int k = 0; k < 1000000; ++k) {
        const uint64_t r = rng.next();
        const int64_t mag =
            static_cast<int64_t>(binarySearchIndex(cdt.entries(), r >> 1));
        ASSERT_EQ(sampler.gaussianScalar(), (r & 1) ? -mag : mag)
            << "draw " << k;
    }
}

// --- reference samplers: the per-element definitions --------------------

ntt::RnsPoly
referenceUniform(const FvParams &params, Xoshiro256 &rng)
{
    const auto &base = params.qBase();
    ntt::RnsPoly poly(base, params.degree());
    for (size_t i = 0; i < base->size(); ++i)
        for (auto &x : poly.residue(i))
            x = rng.uniformBelow(base->modulus(i).value());
    return poly;
}

ntt::RnsPoly
referenceTernary(const FvParams &params, Xoshiro256 &rng)
{
    const auto &base = params.qBase();
    ntt::RnsPoly poly(base, params.degree());
    for (size_t j = 0; j < params.degree(); ++j) {
        const uint64_t v = rng.uniformBelow(3);
        for (size_t i = 0; i < base->size(); ++i) {
            const uint64_t q = base->modulus(i).value();
            poly.residue(i)[j] = v == 1 ? 1 : v == 0 ? q - 1 : 0;
        }
    }
    return poly;
}

ntt::RnsPoly
referenceGaussian(const FvParams &params, Xoshiro256 &rng)
{
    const GaussianCdt cdt(params.sigma());
    const auto &base = params.qBase();
    ntt::RnsPoly poly(base, params.degree());
    for (size_t j = 0; j < params.degree(); ++j) {
        const uint64_t r = rng.next();
        const uint64_t mag = binarySearchIndex(cdt.entries(), r >> 1);
        for (size_t i = 0; i < base->size(); ++i) {
            const uint64_t q = base->modulus(i).value();
            const uint64_t m = mag % q;
            poly.residue(i)[j] = (r & 1) && m != 0 ? q - m : m;
        }
    }
    return poly;
}

void
expectSamplersMatchReference(std::shared_ptr<const FvParams> params)
{
    Sampler sampler(params, 99);
    Xoshiro256 rng(99);
    for (int round = 0; round < 3; ++round) {
        ASSERT_EQ(sampler.uniformQ(), referenceUniform(*params, rng));
        ASSERT_EQ(sampler.ternaryQ(), referenceTernary(*params, rng));
        ASSERT_EQ(sampler.gaussianQ(), referenceGaussian(*params, rng));
    }
}

TEST(Samplers, MatchReferenceSamplersAtThePaperSet)
{
    expectSamplersMatchReference(FvParams::paper(2));
}

TEST(Samplers, MatchReferenceSamplersWhenTheTailExceedsAPrime)
{
    // 12 sigma = 36,000 exceeds every 14-bit prime, so the Gaussian
    // residues take the reducing path.
    FvConfig config;
    config.degree = 16;
    config.plain_modulus = 2;
    config.sigma = 3000.0;
    config.q_prime_count = 2;
    config.prime_bits = 14;
    const auto params = FvParams::create(config);
    ASSERT_LT(params->qBase()->modulus(0).value(), 36000u);
    expectSamplersMatchReference(params);
}

TEST(ScaledPlain, EncryptorAndEvaluatorEmbedDeltaTimesM)
{
    for (uint64_t t : {uint64_t(2), uint64_t(65537)}) {
        const auto params = FvParams::paper(t);
        Xoshiro256 rng(t);
        Plaintext plain;
        plain.coeffs.resize(params->degree() - 5);
        for (auto &c : plain.coeffs)
            c = rng.next(); // unreduced: the embedding takes m mod t
        const auto &base = params->qBase();
        ntt::RnsPoly want(base, params->degree());
        for (size_t i = 0; i < base->size(); ++i) {
            const rns::Modulus &q = base->modulus(i);
            for (size_t j = 0; j < plain.coeffs.size(); ++j)
                want.residue(i)[j] =
                    q.mul(params->deltaResidues()[i], plain.coeffs[j] % t);
        }
        const Evaluator evaluator(params);
        EXPECT_EQ(evaluator.scaledPlain(plain), want);
        KeyGenerator keygen(params, 1);
        const Encryptor encryptor(params,
                                  keygen.generatePublicKey(
                                      keygen.generateSecretKey()),
                                  2);
        EXPECT_EQ(encryptor.scalePlainToQ(plain), want);
    }
}

// --- fixed-seed digest ---------------------------------------------------

struct Digest
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    add(uint64_t word)
    {
        h = (h ^ word) * 0x100000001b3ull;
    }

    void
    add(const ntt::RnsPoly &poly)
    {
        add(poly.residueCount());
        for (uint64_t word : poly.data())
            add(word);
    }

    void
    add(const RelinKeys &keys)
    {
        add(keys.keys.size());
        for (const auto &pair : keys.keys) {
            add(pair[0]);
            add(pair[1]);
        }
    }
};

/**
 * FNV-1a over every twiddle and Shoup constant of the parameter set,
 * then sk, pk, the relinearization keys, two Galois key sets and four
 * ciphertexts from fixed seeds.
 */
uint64_t
setupDigest(std::shared_ptr<const FvParams> params)
{
    Digest d;
    const size_t n = params->degree();
    const ntt::NttContext &context = params->fullContext();
    for (size_t i = 0; i < context.size(); ++i) {
        const ntt::NttTables &t = context.tables(i);
        d.add(t.psi());
        d.add(t.invDegree());
        d.add(t.invDegreeShoup());
        for (size_t j = 0; j < n; ++j) {
            d.add(t.rootPower(j));
            d.add(t.rootPowerShoup(j));
            d.add(t.invRootPower(j));
            d.add(t.invRootPowerShoup(j));
        }
    }
    KeyGenerator keygen(params, 7);
    const SecretKey sk = keygen.generateSecretKey();
    d.add(sk.s_ntt);
    const PublicKey pk = keygen.generatePublicKey(sk);
    d.add(pk.p0_ntt);
    d.add(pk.p1_ntt);
    d.add(keygen.generateRelinKeys(sk));
    const GaloisKeys gkeys = keygen.generateGaloisKeys(
        sk, {3, static_cast<uint32_t>(2 * n - 1)});
    for (const auto &[g, keys] : gkeys.keys) {
        d.add(g);
        d.add(keys);
    }
    Encryptor encryptor(params, pk, 11);
    const uint64_t t = params->plainModulus();
    for (size_t len : {n, n / 2, size_t(1), size_t(0)}) {
        Plaintext plain;
        for (size_t j = 0; j < len; ++j)
            plain.coeffs.push_back((j * j + 3 * len) % t);
        const Ciphertext ct = encryptor.encrypt(plain);
        for (const auto &poly : ct.polys)
            d.add(poly);
    }
    return d.h;
}

TEST(SetupDigest, PaperSetBinary)
{
    EXPECT_EQ(setupDigest(FvParams::paper(2)), 0x42a4400840550c02ull);
}

TEST(SetupDigest, PaperSetBatching)
{
    EXPECT_EQ(setupDigest(FvParams::paper(65537)), 0x7e0de0e72294d606ull);
}

TEST(SetupDigest, SmallSet)
{
    FvConfig config;
    config.degree = 256;
    config.plain_modulus = 257;
    config.sigma = 3.2;
    config.q_prime_count = 3;
    EXPECT_EQ(setupDigest(FvParams::create(config)), 0xa7b97a586a462aa9ull);
}

} // namespace
} // namespace heat::fv
