/**
 * @file
 * Tests for Galois automorphisms and batched slot rotations: the raw
 * coefficient permutation, key-switched ciphertext rotations against
 * the BatchEncoder's slot-permutation oracle, composition laws, and
 * the rotate-and-add slot summation.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "common/panic.h"
#include "common/random.h"
#include "fv/batch_encoder.h"
#include "fv/decryptor.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/galois.h"
#include "fv/keygen.h"
#include "fv/params.h"

namespace heat::fv {
namespace {

std::shared_ptr<const FvParams>
batchParams()
{
    FvConfig config;
    config.degree = 256;
    config.plain_modulus = 65537; // = 1 mod 512
    config.sigma = 3.2;
    config.q_prime_count = 3;
    return FvParams::create(config);
}

TEST(GaloisRaw, IdentityElement)
{
    rns::Modulus q(65537);
    std::vector<uint64_t> in(16), out(16);
    Xoshiro256 rng(1);
    for (auto &x : in)
        x = rng.uniformBelow(q.value());
    applyGaloisToResidue(in, out, 1, q);
    EXPECT_EQ(out, in);
}

TEST(GaloisRaw, MonomialMapping)
{
    // tau_g(x^i) = x^(i g mod 2n) with sign from x^n = -1.
    rns::Modulus q(65537);
    const size_t n = 16;
    for (uint32_t g : {3u, 5u, 31u}) {
        for (size_t i = 0; i < n; ++i) {
            std::vector<uint64_t> in(n, 0), out(n);
            in[i] = 1;
            applyGaloisToResidue(in, out, g, q);
            const size_t j = i * g % (2 * n);
            for (size_t k = 0; k < n; ++k) {
                uint64_t expect = 0;
                if (j < n && k == j)
                    expect = 1;
                else if (j >= n && k == j - n)
                    expect = q.value() - 1;
                EXPECT_EQ(out[k], expect)
                    << "g=" << g << " i=" << i << " k=" << k;
            }
        }
    }
}

TEST(GaloisRaw, Composition)
{
    rns::Modulus q(65537);
    const size_t n = 64;
    Xoshiro256 rng(2);
    std::vector<uint64_t> in(n), ab(n), tmp(n), ba(n);
    for (auto &x : in)
        x = rng.uniformBelow(q.value());
    const uint32_t g1 = 3, g2 = 5;
    // tau_{g2}(tau_{g1}(m)) = tau_{g1 g2 mod 2n}(m).
    applyGaloisToResidue(in, tmp, g1, q);
    applyGaloisToResidue(tmp, ab, g2, q);
    applyGaloisToResidue(in, ba, g1 * g2 % (2 * n), q);
    EXPECT_EQ(ab, ba);
}

TEST(GaloisElement, StepElements)
{
    EXPECT_EQ(galoisElementForStep(0, 256), 1u);
    EXPECT_EQ(galoisElementForStep(1, 256), 3u);
    EXPECT_EQ(galoisElementForStep(2, 256), 9u);
    // Inverse steps compose to identity.
    const uint64_t two_n = 512;
    uint64_t fwd = galoisElementForStep(3, 256);
    uint64_t back = galoisElementForStep(-3, 256);
    EXPECT_EQ(fwd * back % two_n, 1u);
}

TEST(GaloisElement, StepsNormalizeModuloTheRowLength)
{
    // The rotation subgroup has order n/2: steps congruent modulo the
    // slot-row length are the same permutation and must resolve to the
    // same Galois element (one key, not several).
    const size_t period = rotationStepPeriod(256);
    EXPECT_EQ(period, 128u);
    EXPECT_EQ(normalizeRotationSteps(0, 256), 0);
    EXPECT_EQ(normalizeRotationSteps(128, 256), 0);
    EXPECT_EQ(normalizeRotationSteps(129, 256), 1);
    EXPECT_EQ(normalizeRotationSteps(-1, 256), 127);
    EXPECT_EQ(normalizeRotationSteps(-128, 256), 0);

    EXPECT_EQ(galoisElementForStep(1, 256),
              galoisElementForStep(1 + 128, 256));
    EXPECT_EQ(galoisElementForStep(-1, 256),
              galoisElementForStep(127, 256));
    // A full-row rotation is the identity element.
    EXPECT_EQ(galoisElementForStep(128, 256), 1u);
    EXPECT_EQ(galoisElementForStep(-256, 256), 1u);
}

TEST(BatchEncoderPerm, PermutationIsBijective)
{
    auto params = batchParams();
    BatchEncoder encoder(params);
    for (uint32_t g : {3u, 9u, 511u}) {
        auto perm = encoder.slotPermutation(g);
        std::vector<bool> seen(perm.size(), false);
        for (size_t p : perm) {
            ASSERT_LT(p, perm.size());
            EXPECT_FALSE(seen[p]);
            seen[p] = true;
        }
    }
}

TEST(BatchEncoderPerm, InvalidElementsAreRejected)
{
    // One predicate, odd and < 2n: slotPermutation (a public entry) is
    // fatal on anything else, the raw index map panics.
    auto params = batchParams();
    BatchEncoder encoder(params);
    const size_t n = params->degree();
    const uint32_t two_n = static_cast<uint32_t>(2 * n);
    EXPECT_TRUE(isValidGaloisElement(1, n));
    EXPECT_TRUE(isValidGaloisElement(two_n - 1, n));
    for (uint32_t g : {0u, 2u, two_n, two_n + 1}) {
        EXPECT_FALSE(isValidGaloisElement(g, n)) << g;
        EXPECT_THROW(encoder.slotPermutation(g), FatalError) << g;
        EXPECT_THROW(galoisNttIndexMap(n, g), PanicError) << g;
    }
    // The identity element maps every slot to itself.
    const std::vector<size_t> id = encoder.slotPermutation(1);
    for (size_t j = 0; j < n; ++j)
        EXPECT_EQ(id[j], j);
}

TEST(BatchEncoderPerm, MatchesPlaintextAutomorphism)
{
    // decode(tau_g(m))[j] == decode(m)[perm[j]] on plaintexts alone.
    auto params = batchParams();
    BatchEncoder encoder(params);
    rns::Modulus t(params->plainModulus());
    Xoshiro256 rng(3);
    std::vector<uint64_t> slots(encoder.slotCount());
    for (auto &v : slots)
        v = rng.uniformBelow(t.value());
    Plaintext m = encoder.encode(slots);

    for (uint32_t g : {3u, 27u, 511u}) {
        Plaintext rotated;
        rotated.coeffs.resize(params->degree());
        applyGaloisToResidue(m.coeffs, rotated.coeffs, g, t);
        auto decoded = encoder.decode(rotated);
        auto perm = encoder.slotPermutation(g);
        for (size_t j = 0; j < decoded.size(); ++j)
            ASSERT_EQ(decoded[j], slots[perm[j]]) << "g=" << g << " " << j;
    }
}

/** Full-scheme fixture with rotation keys. */
struct RotRig
{
    RotRig()
        : params(batchParams()),
          keygen(params, 1234),
          sk(keygen.generateSecretKey()),
          pk(keygen.generatePublicKey(sk)),
          gkeys(keygen.generateRotationKeys(sk)),
          encryptor(params, pk, 5),
          decryptor(params, sk),
          evaluator(params),
          encoder(params)
    {
    }

    std::shared_ptr<const FvParams> params;
    KeyGenerator keygen;
    SecretKey sk;
    PublicKey pk;
    GaloisKeys gkeys;
    Encryptor encryptor;
    Decryptor decryptor;
    Evaluator evaluator;
    BatchEncoder encoder;
};

TEST(GaloisCiphertext, RotationMatchesSlotPermutation)
{
    RotRig rig;
    Xoshiro256 rng(6);
    std::vector<uint64_t> slots(rig.encoder.slotCount());
    for (auto &v : slots)
        v = rng.uniformBelow(rig.params->plainModulus());
    Ciphertext ct = rig.encryptor.encrypt(rig.encoder.encode(slots));

    for (int steps : {1, 2, -1}) {
        const uint32_t g =
            galoisElementForStep(steps, rig.params->degree());
        Ciphertext rotated = rig.evaluator.rotateSlots(ct, steps, rig.gkeys);
        auto decoded =
            rig.encoder.decode(rig.decryptor.decrypt(rotated));
        auto perm = rig.encoder.slotPermutation(g);
        for (size_t j = 0; j < decoded.size(); ++j)
            ASSERT_EQ(decoded[j], slots[perm[j]])
                << "steps=" << steps << " slot " << j;
    }
}

TEST(GaloisCiphertext, RotateThereAndBack)
{
    RotRig rig;
    std::vector<uint64_t> slots(rig.encoder.slotCount());
    std::iota(slots.begin(), slots.end(), 7);
    Ciphertext ct = rig.encryptor.encrypt(rig.encoder.encode(slots));

    Ciphertext moved = rig.evaluator.rotateSlots(ct, 2, rig.gkeys);
    moved = rig.evaluator.rotateSlots(moved, -2, rig.gkeys);
    auto decoded = rig.encoder.decode(rig.decryptor.decrypt(moved));
    EXPECT_EQ(decoded, slots);
    EXPECT_GT(rig.decryptor.invariantNoiseBudget(moved), 0.0);
}

TEST(GaloisCiphertext, ColumnSwapIsInvolution)
{
    RotRig rig;
    Xoshiro256 rng(8);
    std::vector<uint64_t> slots(rig.encoder.slotCount());
    for (auto &v : slots)
        v = rng.uniformBelow(rig.params->plainModulus());
    Ciphertext ct = rig.encryptor.encrypt(rig.encoder.encode(slots));

    Ciphertext swapped = rig.evaluator.rotateColumns(ct, rig.gkeys);
    auto once = rig.encoder.decode(rig.decryptor.decrypt(swapped));
    EXPECT_NE(once, slots); // actually moves data
    Ciphertext back = rig.evaluator.rotateColumns(swapped, rig.gkeys);
    auto twice = rig.encoder.decode(rig.decryptor.decrypt(back));
    EXPECT_EQ(twice, slots);
}

TEST(GaloisCiphertext, SumAllSlots)
{
    RotRig rig;
    const uint64_t t = rig.params->plainModulus();
    Xoshiro256 rng(9);
    std::vector<uint64_t> slots(rig.encoder.slotCount());
    uint64_t expect = 0;
    for (auto &v : slots) {
        v = rng.uniformBelow(500);
        expect = (expect + v) % t;
    }
    Ciphertext ct = rig.encryptor.encrypt(rig.encoder.encode(slots));
    Ciphertext total = rig.evaluator.sumAllSlots(ct, rig.gkeys);
    auto decoded = rig.encoder.decode(rig.decryptor.decrypt(total));
    for (size_t j = 0; j < decoded.size(); ++j)
        ASSERT_EQ(decoded[j], expect) << "slot " << j;
    EXPECT_GT(rig.decryptor.invariantNoiseBudget(total), 0.0);
}

TEST(GaloisCiphertext, RotateByZeroIsAnIdentityCopy)
{
    // Regression: rotateSlots(ct, 0) used to resolve to Galois
    // element 1 and attempt a full key-switch (failing on the missing
    // key and burning budget with one present). It must be a plain
    // copy that needs no key at all.
    RotRig rig;
    std::vector<uint64_t> slots(rig.encoder.slotCount());
    std::iota(slots.begin(), slots.end(), 3);
    Ciphertext ct = rig.encryptor.encrypt(rig.encoder.encode(slots));

    GaloisKeys empty;
    const Ciphertext same = rig.evaluator.rotateSlots(ct, 0, empty);
    EXPECT_EQ(same, ct); // bit-exact, not merely same decryption
}

TEST(GaloisCiphertext, FullRowRotationIsAnIdentityCopy)
{
    RotRig rig;
    const int period = static_cast<int>(
        rotationStepPeriod(rig.params->degree()));
    std::vector<uint64_t> slots(rig.encoder.slotCount());
    std::iota(slots.begin(), slots.end(), 9);
    Ciphertext ct = rig.encryptor.encrypt(rig.encoder.encode(slots));

    GaloisKeys empty;
    EXPECT_EQ(rig.evaluator.rotateSlots(ct, period, empty), ct);
    EXPECT_EQ(rig.evaluator.rotateSlots(ct, -period, empty), ct);

    // Congruent steps land on the same permutation with the same key.
    const Ciphertext direct = rig.evaluator.rotateSlots(ct, 1, rig.gkeys);
    const Ciphertext wrapped =
        rig.evaluator.rotateSlots(ct, 1 + period, rig.gkeys);
    EXPECT_EQ(direct, wrapped);
}

TEST(GaloisCiphertext, MissingKeyIsFatal)
{
    RotRig rig;
    std::vector<uint64_t> slots(rig.encoder.slotCount(), 1);
    Ciphertext ct = rig.encryptor.encrypt(rig.encoder.encode(slots));
    GaloisKeys empty;
    EXPECT_THROW(rig.evaluator.rotateSlots(ct, 1, empty), FatalError);
}

} // namespace
} // namespace heat::fv
