/**
 * @file
 * Round-trip and failure-injection tests for the binary wire format:
 * plaintexts, ciphertexts, all key types, fingerprint and corruption
 * checks, and an end-to-end client/server exchange.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/panic.h"
#include "common/random.h"
#include "fv/decryptor.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "fv/serialize.h"

namespace heat::fv {
namespace {

std::shared_ptr<const FvParams>
smallParams(uint64_t t = 65537)
{
    FvConfig config;
    config.degree = 256;
    config.plain_modulus = t;
    config.sigma = 3.2;
    config.q_prime_count = 3;
    return FvParams::create(config);
}

TEST(Serialize, FingerprintIsStableAndDiscriminating)
{
    auto p1 = smallParams();
    auto p2 = smallParams();
    EXPECT_EQ(paramsFingerprint(*p1), paramsFingerprint(*p2));
    auto p3 = smallParams(257);
    EXPECT_NE(paramsFingerprint(*p1), paramsFingerprint(*p3));
    EXPECT_NE(paramsFingerprint(*p1),
              paramsFingerprint(*FvParams::paper()));
}

TEST(Serialize, PlaintextRoundTrip)
{
    Plaintext plain;
    plain.coeffs = {1, 0, 65536, 42, 0, 7};
    std::stringstream ss;
    savePlaintext(plain, ss);
    EXPECT_EQ(loadPlaintext(ss), plain);
}

TEST(Serialize, CiphertextRoundTrip)
{
    auto params = smallParams();
    KeyGenerator keygen(params, 1);
    SecretKey sk = keygen.generateSecretKey();
    PublicKey pk = keygen.generatePublicKey(sk);
    Encryptor encryptor(params, pk, 2);

    Plaintext m;
    m.coeffs = {1, 2, 3, 4, 5};
    Ciphertext ct = encryptor.encrypt(m);

    std::stringstream ss;
    saveCiphertext(*params, ct, ss);
    EXPECT_EQ(static_cast<size_t>(ss.tellp()),
              ciphertextByteSize(*params, ct));
    Ciphertext back = loadCiphertext(params, ss);
    ASSERT_EQ(back.size(), ct.size());
    for (size_t i = 0; i < ct.size(); ++i)
        EXPECT_EQ(back[i], ct[i]);

    // The reloaded ciphertext still decrypts.
    Decryptor decryptor(params, std::move(sk));
    EXPECT_EQ(decryptor.decrypt(back).coeffs[2], 3u);
}

TEST(Serialize, ThreeElementCiphertextRoundTrip)
{
    auto params = smallParams(4);
    KeyGenerator keygen(params, 3);
    SecretKey sk = keygen.generateSecretKey();
    PublicKey pk = keygen.generatePublicKey(sk);
    Encryptor encryptor(params, pk, 4);
    Evaluator evaluator(params);

    Plaintext m;
    m.coeffs = {1, 1};
    Ciphertext ct3 =
        evaluator.multiplyNoRelin(encryptor.encrypt(m), encryptor.encrypt(m));
    ASSERT_EQ(ct3.size(), 3u);

    std::stringstream ss;
    saveCiphertext(*params, ct3, ss);
    Ciphertext back = loadCiphertext(params, ss);
    ASSERT_EQ(back.size(), 3u);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(back[i], ct3[i]);
}

TEST(Serialize, KeyRoundTrips)
{
    auto params = smallParams();
    KeyGenerator keygen(params, 5);
    SecretKey sk = keygen.generateSecretKey();
    PublicKey pk = keygen.generatePublicKey(sk);
    RelinKeys rlk = keygen.generateRelinKeys(sk);
    GaloisKeys gkeys = keygen.generateGaloisKeys(
        sk, {3u, static_cast<uint32_t>(2 * params->degree() - 1)});

    std::stringstream ss;
    saveSecretKey(*params, sk, ss);
    savePublicKey(*params, pk, ss);
    saveRelinKeys(*params, rlk, ss);
    saveGaloisKeys(*params, gkeys, ss);

    SecretKey sk2 = loadSecretKey(params, ss);
    PublicKey pk2 = loadPublicKey(params, ss);
    RelinKeys rlk2 = loadRelinKeys(params, ss);
    GaloisKeys gkeys2 = loadGaloisKeys(params, ss);

    EXPECT_EQ(sk2.s_ntt, sk.s_ntt);
    EXPECT_EQ(pk2.p0_ntt, pk.p0_ntt);
    EXPECT_EQ(pk2.p1_ntt, pk.p1_ntt);
    ASSERT_EQ(rlk2.digitCount(), rlk.digitCount());
    for (size_t i = 0; i < rlk.digitCount(); ++i) {
        EXPECT_EQ(rlk2.keys[i][0], rlk.keys[i][0]);
        EXPECT_EQ(rlk2.keys[i][1], rlk.keys[i][1]);
    }
    ASSERT_EQ(gkeys2.keys.size(), gkeys.keys.size());
    EXPECT_TRUE(gkeys2.has(3u));
}

TEST(Serialize, InvalidGaloisElementRejected)
{
    // A stream that stores a key under an element that names no
    // automorphism (even, or >= 2n) would reach a panic in the
    // coprocessor; loading it is a FatalError instead.
    auto params = smallParams();
    KeyGenerator keygen(params, 6);
    SecretKey sk = keygen.generateSecretKey();
    const GaloisKeys valid = keygen.generateGaloisKeys(sk, {3u});
    const uint32_t two_n = static_cast<uint32_t>(2 * params->degree());
    for (uint32_t bad : {2u, two_n}) {
        GaloisKeys crafted = valid;
        crafted.keys.emplace(bad, valid.keys.at(3));
        std::stringstream ss;
        saveGaloisKeys(*params, crafted, ss);
        EXPECT_THROW(loadGaloisKeys(params, ss), FatalError) << bad;
    }
}

TEST(Serialize, PositionalRelinKeysKeepKind)
{
    auto params = smallParams();
    KeyGenerator keygen(params, 6);
    SecretKey sk = keygen.generateSecretKey();
    RelinKeys rlk = keygen.generatePositionalRelinKeys(sk, 45);

    std::stringstream ss;
    saveRelinKeys(*params, rlk, ss);
    RelinKeys back = loadRelinKeys(params, ss);
    EXPECT_EQ(back.kind, DecompKind::kPositional);
    EXPECT_EQ(back.digit_bits, 45);
    EXPECT_EQ(back.digitCount(), rlk.digitCount());
}

TEST(Serialize, WrongParamsRejected)
{
    auto params = smallParams();
    auto other = smallParams(257);
    KeyGenerator keygen(params, 7);
    SecretKey sk = keygen.generateSecretKey();
    PublicKey pk = keygen.generatePublicKey(sk);
    Encryptor encryptor(params, pk, 8);
    Plaintext m;
    m.coeffs = {1};
    Ciphertext ct = encryptor.encrypt(m);

    std::stringstream ss;
    saveCiphertext(*params, ct, ss);
    EXPECT_THROW(loadCiphertext(other, ss), FatalError);
}

TEST(Serialize, CorruptMagicRejected)
{
    std::stringstream ss;
    savePlaintext(Plaintext({1, 2, 3}), ss);
    std::string bytes = ss.str();
    bytes[0] = 'X';
    std::stringstream bad(bytes);
    EXPECT_THROW(loadPlaintext(bad), FatalError);
}

TEST(Serialize, TruncatedStreamRejected)
{
    auto params = smallParams();
    KeyGenerator keygen(params, 9);
    SecretKey sk = keygen.generateSecretKey();
    PublicKey pk = keygen.generatePublicKey(sk);
    Encryptor encryptor(params, pk, 10);
    Plaintext m;
    m.coeffs = {1};
    std::stringstream ss;
    saveCiphertext(*params, encryptor.encrypt(m), ss);
    std::string bytes = ss.str().substr(0, ss.str().size() / 2);
    std::stringstream bad(bytes);
    EXPECT_THROW(loadCiphertext(params, bad), FatalError);
}

TEST(Serialize, WrongPayloadKindRejected)
{
    auto params = smallParams();
    KeyGenerator keygen(params, 11);
    SecretKey sk = keygen.generateSecretKey();
    std::stringstream ss;
    saveSecretKey(*params, sk, ss);
    EXPECT_THROW(loadCiphertext(params, ss), FatalError);
}

TEST(Serialize, RandomizedCiphertextRoundTripProperty)
{
    // Property: for randomized keys and plaintexts, serialize ->
    // deserialize is the identity on ciphertexts, and the reloaded
    // ciphertext decrypts to the same plaintext as the original.
    for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        auto params = smallParams(seed % 2 == 0 ? 65537 : 4);
        KeyGenerator keygen(params, seed);
        SecretKey sk = keygen.generateSecretKey();
        PublicKey pk = keygen.generatePublicKey(sk);
        Encryptor encryptor(params, pk, seed ^ 0xF00D);
        Decryptor decryptor(params, SecretKey{sk.s_ntt});

        Xoshiro256 rng(seed * 31);
        Plaintext m;
        m.coeffs.resize(params->degree());
        for (auto &c : m.coeffs)
            c = rng.uniformBelow(params->plainModulus());
        Ciphertext ct = encryptor.encrypt(m);

        std::stringstream ss;
        saveCiphertext(*params, ct, ss);
        Ciphertext back = loadCiphertext(params, ss);
        EXPECT_EQ(back, ct) << "seed " << seed;
        EXPECT_EQ(decryptor.decrypt(back), decryptor.decrypt(ct));
    }
}

TEST(Serialize, RandomizedKeyRoundTripProperty)
{
    for (uint64_t seed : {7u, 8u, 9u}) {
        auto params = smallParams();
        KeyGenerator keygen(params, seed);
        SecretKey sk = keygen.generateSecretKey();
        PublicKey pk = keygen.generatePublicKey(sk);
        RelinKeys rlk = keygen.generateRelinKeys(sk);

        std::stringstream ss;
        saveSecretKey(*params, sk, ss);
        savePublicKey(*params, pk, ss);
        saveRelinKeys(*params, rlk, ss);

        EXPECT_EQ(loadSecretKey(params, ss).s_ntt, sk.s_ntt);
        PublicKey pk2 = loadPublicKey(params, ss);
        EXPECT_EQ(pk2.p0_ntt, pk.p0_ntt);
        EXPECT_EQ(pk2.p1_ntt, pk.p1_ntt);
        RelinKeys rlk2 = loadRelinKeys(params, ss);
        ASSERT_EQ(rlk2.digitCount(), rlk.digitCount());
        for (size_t i = 0; i < rlk.digitCount(); ++i) {
            EXPECT_EQ(rlk2.keys[i][0], rlk.keys[i][0]);
            EXPECT_EQ(rlk2.keys[i][1], rlk.keys[i][1]);
        }
    }
}

TEST(Serialize, TruncationAtEveryRegionRejected)
{
    // Sweep cut points across every region of the wire format — inside
    // the magic, the header, and the payload, and one byte short of the
    // end. Every truncation must fail loudly with FatalError, never
    // return a partial object or hang.
    auto params = smallParams();
    KeyGenerator keygen(params, 21);
    SecretKey sk = keygen.generateSecretKey();
    PublicKey pk = keygen.generatePublicKey(sk);
    Encryptor encryptor(params, pk, 22);
    Plaintext m;
    m.coeffs = {1, 2, 3};
    std::stringstream ss;
    saveCiphertext(*params, encryptor.encrypt(m), ss);
    const std::string bytes = ss.str();
    ASSERT_GT(bytes.size(), 32u);

    const size_t cuts[] = {0,
                           2,                    // inside the magic
                           6,                    // inside the version
                           14,                   // inside the fingerprint
                           bytes.size() / 4,
                           bytes.size() / 2,
                           bytes.size() - 5,
                           bytes.size() - 1};
    for (size_t cut : cuts) {
        std::stringstream bad(bytes.substr(0, cut));
        EXPECT_THROW(loadCiphertext(params, bad), FatalError)
            << "cut at " << cut << " of " << bytes.size();
    }
    // The untruncated buffer still loads (the sweep is the only thing
    // failing, not the format).
    std::stringstream good(bytes);
    EXPECT_NO_THROW(loadCiphertext(params, good));
}

TEST(Serialize, TruncatedRelinKeysRejected)
{
    auto params = smallParams();
    KeyGenerator keygen(params, 23);
    RelinKeys rlk = keygen.generateRelinKeys(keygen.generateSecretKey());
    std::stringstream ss;
    saveRelinKeys(*params, rlk, ss);
    const std::string bytes = ss.str();
    for (size_t denom : {8u, 3u, 2u}) {
        std::stringstream bad(bytes.substr(0, bytes.size() / denom));
        EXPECT_THROW(loadRelinKeys(params, bad), FatalError)
            << "kept 1/" << denom;
    }
}

TEST(Serialize, LevelRoundTripsAtEveryLevel)
{
    // The v2 wire format carries the modulus-switching level; the
    // polynomials of a deep ciphertext live over the truncated basis,
    // so the blob also shrinks with every level.
    auto params = smallParams();
    KeyGenerator keygen(params, 31);
    SecretKey sk = keygen.generateSecretKey();
    PublicKey pk = keygen.generatePublicKey(sk);
    Encryptor encryptor(params, pk, 32);
    Decryptor decryptor(params, SecretKey{sk.s_ntt});
    Evaluator evaluator(params);

    Plaintext m;
    m.coeffs = {9, 8, 7};
    const Ciphertext fresh = encryptor.encrypt(m);
    ASSERT_GE(params->maxLevel(), 2u);
    size_t prev_bytes = 0;
    for (size_t level = 0; level <= params->maxLevel(); ++level) {
        const Ciphertext ct = evaluator.modSwitchTo(fresh, level);
        ASSERT_EQ(ct.level, level);
        std::stringstream ss;
        saveCiphertext(*params, ct, ss);
        EXPECT_EQ(static_cast<size_t>(ss.tellp()),
                  ciphertextByteSize(*params, ct));
        const Ciphertext back = loadCiphertext(params, ss);
        EXPECT_EQ(back, ct) << "level " << level;
        EXPECT_EQ(back.level, level);
        EXPECT_EQ(decryptor.decrypt(back).coeffs[2], 7u)
            << "level " << level;
        if (level > 0) {
            EXPECT_LT(ss.str().size(), prev_bytes) << "level " << level;
        }
        prev_bytes = ss.str().size();
    }
}

TEST(Serialize, ThreeElementDeepCiphertextRoundTrip)
{
    // An unrelinearized tensor at a deep level: three polynomials over
    // the truncated basis, level preserved bit for bit.
    auto params = smallParams(257);
    KeyGenerator keygen(params, 33);
    SecretKey sk = keygen.generateSecretKey();
    PublicKey pk = keygen.generatePublicKey(sk);
    Encryptor encryptor(params, pk, 34);
    Evaluator evaluator(params);

    Plaintext m;
    m.coeffs = {1, 1};
    Ciphertext a = evaluator.modSwitch(encryptor.encrypt(m));
    Ciphertext b = evaluator.modSwitch(encryptor.encrypt(m));
    Ciphertext ct3 = evaluator.multiplyNoRelin(a, b);
    ASSERT_EQ(ct3.size(), 3u);
    ASSERT_EQ(ct3.level, 1u);

    std::stringstream ss;
    saveCiphertext(*params, ct3, ss);
    EXPECT_EQ(loadCiphertext(params, ss), ct3);
}

TEST(Serialize, LegacyLevelFreeStreamLoadsAtLevelZero)
{
    // Version-1 blobs predate the level field entirely: forge one by
    // patching the version word down to 1 and cutting the level u32
    // (offset 20, right after the 20-byte header). It must load as a
    // level-0 ciphertext identical to the original.
    auto params = smallParams();
    KeyGenerator keygen(params, 35);
    SecretKey sk = keygen.generateSecretKey();
    PublicKey pk = keygen.generatePublicKey(sk);
    Encryptor encryptor(params, pk, 36);
    Decryptor decryptor(params, SecretKey{sk.s_ntt});

    Plaintext m;
    m.coeffs = {4, 0, 2};
    const Ciphertext ct = encryptor.encrypt(m);
    std::stringstream ss;
    saveCiphertext(*params, ct, ss);
    std::string bytes = ss.str();
    ASSERT_EQ(bytes[4], 2); // little-endian version word
    bytes[4] = 1;
    bytes.erase(20, 4);

    std::stringstream legacy(bytes);
    const Ciphertext back = loadCiphertext(params, legacy);
    EXPECT_EQ(back.level, 0u);
    EXPECT_EQ(back, ct);
    EXPECT_EQ(decryptor.decrypt(back).coeffs[0], 4u);
}

TEST(Serialize, OutOfRangeLevelRejected)
{
    // A stream claiming a level past the parameter set's chain must be
    // refused before any polynomial data is interpreted.
    auto params = smallParams();
    KeyGenerator keygen(params, 37);
    SecretKey sk = keygen.generateSecretKey();
    PublicKey pk = keygen.generatePublicKey(sk);
    Encryptor encryptor(params, pk, 38);

    Plaintext m;
    m.coeffs = {1};
    std::stringstream ss;
    saveCiphertext(*params, encryptor.encrypt(m), ss);
    std::string bytes = ss.str();
    bytes[20] = static_cast<char>(params->maxLevel() + 1);
    std::stringstream bad(bytes);
    EXPECT_THROW(loadCiphertext(params, bad), FatalError);
}

/** Overwrite the little-endian u32 at @p offset of @p bytes. */
void
patchU32(std::string &bytes, size_t offset, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes[offset + i] = static_cast<char>(v >> (8 * i));
}

uint32_t
peekU32(const std::string &bytes, size_t offset)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(static_cast<unsigned char>(
                 bytes[offset + i]))
             << (8 * i);
    return v;
}

TEST(Serialize, UnreducedResiduesAndBadFormWordRejected)
{
    // A stream residue must lie below its row's prime, and the form word
    // must be 0 (coefficient) or 1 (NTT): anything else is corrupt input
    // and must fail with FatalError instead of loading.
    auto params = smallParams();
    KeyGenerator keygen(params, 41);
    SecretKey sk = keygen.generateSecretKey();
    PublicKey pk = keygen.generatePublicKey(sk);
    Encryptor encryptor(params, pk, 42);
    Plaintext m;
    m.coeffs = {1, 2};
    std::stringstream ss;
    saveCiphertext(*params, encryptor.encrypt(m), ss);
    const std::string bytes = ss.str();

    // Header (20 bytes), level, part count; then the first polynomial:
    // residue count, degree, form word, residue-major data.
    const size_t poly = 28;
    const size_t n = params->degree();
    ASSERT_EQ(peekU32(bytes, poly), params->qBase()->size());
    ASSERT_EQ(peekU32(bytes, poly + 4), n);
    const size_t data = poly + 12;
    for (size_t row : {size_t{0}, params->qBase()->size() - 1}) {
        const uint64_t q = params->qBase()->modulus(row).value();
        ASSERT_LT(q + 1, uint64_t{1} << 32);
        for (uint64_t bad : {q, q + 1}) {
            std::string corrupt = bytes;
            patchU32(corrupt, data + 4 * (row * n + 3),
                     static_cast<uint32_t>(bad));
            std::stringstream in(corrupt);
            EXPECT_THROW(loadCiphertext(params, in), FatalError)
                << "row " << row << " residue " << bad;
        }
        // The largest reduced residue still loads.
        std::string edge = bytes;
        patchU32(edge, data + 4 * (row * n + 3),
                 static_cast<uint32_t>(q - 1));
        std::stringstream in(edge);
        EXPECT_NO_THROW(loadCiphertext(params, in));
    }

    std::string form = bytes;
    patchU32(form, poly + 8, 2);
    std::stringstream in(form);
    EXPECT_THROW(loadCiphertext(params, in), FatalError);
}

TEST(Serialize, EndToEndClientServerExchange)
{
    // Client encrypts and serializes; server deserializes, computes,
    // serializes the result; client decrypts.
    auto params = smallParams(4);
    KeyGenerator keygen(params, 12);
    SecretKey sk = keygen.generateSecretKey();
    PublicKey pk = keygen.generatePublicKey(sk);
    RelinKeys rlk = keygen.generateRelinKeys(sk);
    Encryptor encryptor(params, pk, 13);

    Plaintext m0, m1;
    m0.coeffs = {1, 2, 3};
    m1.coeffs = {2, 0, 1};
    std::stringstream wire;
    saveCiphertext(*params, encryptor.encrypt(m0), wire);
    saveCiphertext(*params, encryptor.encrypt(m1), wire);
    saveRelinKeys(*params, rlk, wire);

    // Server side.
    Ciphertext a = loadCiphertext(params, wire);
    Ciphertext b = loadCiphertext(params, wire);
    RelinKeys server_rlk = loadRelinKeys(params, wire);
    Evaluator evaluator(params);
    Ciphertext product = evaluator.multiply(a, b, server_rlk);
    std::stringstream reply;
    saveCiphertext(*params, product, reply);

    // Client side.
    Decryptor decryptor(params, std::move(sk));
    Plaintext result = decryptor.decrypt(loadCiphertext(params, reply));
    // (1 + 2x + 3x^2)(2 + x^2) mod 4 = 2 + 4x + 7x^2 + 2x^3 + 3x^4.
    EXPECT_EQ(result.coeffs[0], 2u);
    EXPECT_EQ(result.coeffs[1], 0u);
    EXPECT_EQ(result.coeffs[2], 3u);
    EXPECT_EQ(result.coeffs[3], 2u);
    EXPECT_EQ(result.coeffs[4], 3u);
}

} // namespace
} // namespace heat::fv
