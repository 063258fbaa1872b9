#include "fv/serialize.h"

#include <istream>
#include <ostream>

#include "common/panic.h"

namespace heat::fv {

namespace {

constexpr uint32_t kMagic = 0x54414548; // "HEAT" little-endian
// Version 2 adds the ciphertext level field (one u32 before the part
// count). Version-1 streams are still accepted and load at level 0.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kMinVersion = 1;

enum class PayloadKind : uint32_t
{
    kPlaintext = 1,
    kCiphertext = 2,
    kSecretKey = 3,
    kPublicKey = 4,
    kRelinKeys = 5,
    kGaloisKeys = 6,
};

void
writeU32(std::ostream &out, uint32_t v)
{
    unsigned char bytes[4];
    for (int i = 0; i < 4; ++i)
        bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    out.write(reinterpret_cast<const char *>(bytes), 4);
}

void
writeU64(std::ostream &out, uint64_t v)
{
    writeU32(out, static_cast<uint32_t>(v));
    writeU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t
readU32(std::istream &in)
{
    unsigned char bytes[4];
    in.read(reinterpret_cast<char *>(bytes), 4);
    fatalIf(!in, "unexpected end of stream");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(bytes[i]) << (8 * i);
    return v;
}

uint64_t
readU64(std::istream &in)
{
    uint64_t lo = readU32(in);
    uint64_t hi = readU32(in);
    return lo | (hi << 32);
}

void
writeHeader(std::ostream &out, PayloadKind kind, uint64_t fingerprint)
{
    writeU32(out, kMagic);
    writeU32(out, kVersion);
    writeU32(out, static_cast<uint32_t>(kind));
    writeU64(out, fingerprint);
}

uint32_t
readHeader(std::istream &in, PayloadKind kind, uint64_t fingerprint)
{
    fatalIf(readU32(in) != kMagic, "bad magic: not a HEAT stream");
    const uint32_t version = readU32(in);
    fatalIf(version < kMinVersion || version > kVersion,
            "unsupported stream version ", version);
    const uint32_t got_kind = readU32(in);
    fatalIf(got_kind != static_cast<uint32_t>(kind),
            "unexpected payload kind ", got_kind);
    const uint64_t got_fp = readU64(in);
    fatalIf(got_fp != fingerprint,
            "parameter fingerprint mismatch: stream was produced with a "
            "different parameter set");
    return version;
}

void
writePoly(std::ostream &out, const ntt::RnsPoly &poly)
{
    writeU32(out, static_cast<uint32_t>(poly.residueCount()));
    writeU32(out, static_cast<uint32_t>(poly.degree()));
    writeU32(out, poly.form() == ntt::PolyForm::kNtt ? 1 : 0);
    for (uint64_t v : poly.data()) {
        fatalIf(v >> 32, "residue too wide for the 32-bit wire format");
        writeU32(out, static_cast<uint32_t>(v));
    }
}

ntt::RnsPoly
readPoly(const std::shared_ptr<const FvParams> &params, std::istream &in,
         size_t level = 0)
{
    const uint32_t residues = readU32(in);
    const uint32_t degree = readU32(in);
    const uint32_t ntt_form = readU32(in);
    fatalIf(degree != params->degree(), "degree mismatch in stream");
    fatalIf(ntt_form > 1, "stream polynomial has invalid form word ",
            ntt_form);

    std::shared_ptr<const rns::RnsBase> base;
    if (residues == params->qBase(level)->size())
        base = params->qBase(level);
    else if (residues == params->fullBase(level)->size())
        base = params->fullBase(level);
    else
        fatal("stream polynomial has unexpected residue count ", residues,
              " for level ", level);

    ntt::RnsPoly poly(base, degree,
                      ntt_form ? ntt::PolyForm::kNtt
                               : ntt::PolyForm::kCoeff);
    for (size_t i = 0; i < base->size(); ++i) {
        const uint64_t q = base->modulus(i).value();
        for (uint64_t &v : poly.residue(i)) {
            v = readU32(in);
            fatalIf(v >= q, "stream residue ", v, " in row ", i,
                    " is not reduced modulo ", q);
        }
    }
    return poly;
}

void
writeRelinPayload(std::ostream &out, const RelinKeys &rlk)
{
    writeU32(out, rlk.kind == DecompKind::kRnsDigits ? 0 : 1);
    writeU32(out, static_cast<uint32_t>(rlk.digit_bits));
    writeU32(out, static_cast<uint32_t>(rlk.digitCount()));
    for (const auto &pair : rlk.keys) {
        writePoly(out, pair[0]);
        writePoly(out, pair[1]);
    }
}

RelinKeys
readRelinPayload(const std::shared_ptr<const FvParams> &params,
                 std::istream &in)
{
    RelinKeys rlk;
    rlk.kind = readU32(in) == 0 ? DecompKind::kRnsDigits
                                : DecompKind::kPositional;
    rlk.digit_bits = static_cast<int>(readU32(in));
    const uint32_t digits = readU32(in);
    for (uint32_t i = 0; i < digits; ++i) {
        ntt::RnsPoly k0 = readPoly(params, in);
        ntt::RnsPoly k1 = readPoly(params, in);
        rlk.keys.push_back({std::move(k0), std::move(k1)});
    }
    return rlk;
}

} // namespace

uint64_t
paramsFingerprint(const FvParams &params)
{
    // FNV-1a over the defining integers.
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    };
    mix(params.degree());
    mix(params.plainModulus());
    for (const auto &m : params.qBase()->moduli())
        mix(m.value());
    for (const auto &m : params.pBase()->moduli())
        mix(m.value());
    return h;
}

void
savePlaintext(const Plaintext &plain, std::ostream &out)
{
    writeHeader(out, PayloadKind::kPlaintext, 0);
    writeU32(out, static_cast<uint32_t>(plain.coeffs.size()));
    for (uint64_t c : plain.coeffs)
        writeU64(out, c);
}

Plaintext
loadPlaintext(std::istream &in)
{
    readHeader(in, PayloadKind::kPlaintext, 0);
    Plaintext plain;
    plain.coeffs.resize(readU32(in));
    for (auto &c : plain.coeffs)
        c = readU64(in);
    return plain;
}

void
saveCiphertext(const FvParams &params, const Ciphertext &ct,
               std::ostream &out)
{
    writeHeader(out, PayloadKind::kCiphertext, paramsFingerprint(params));
    fatalIf(ct.level > params.maxLevel(),
            "ciphertext level out of range for this parameter set");
    writeU32(out, static_cast<uint32_t>(ct.level));
    writeU32(out, static_cast<uint32_t>(ct.size()));
    for (const auto &poly : ct.polys)
        writePoly(out, poly);
}

Ciphertext
loadCiphertext(const std::shared_ptr<const FvParams> &params,
               std::istream &in)
{
    const uint32_t version =
        readHeader(in, PayloadKind::kCiphertext, paramsFingerprint(*params));
    Ciphertext ct;
    // Version-1 streams predate levels: everything was level 0.
    ct.level = version >= 2 ? readU32(in) : 0;
    fatalIf(ct.level > params->maxLevel(),
            "stream ciphertext level out of range");
    const uint32_t count = readU32(in);
    fatalIf(count < 2 || count > 3, "ciphertext with ", count, " parts");
    for (uint32_t i = 0; i < count; ++i)
        ct.polys.push_back(readPoly(params, in, ct.level));
    return ct;
}

size_t
ciphertextByteSize(const FvParams & /*params*/, const Ciphertext &ct)
{
    size_t size = 4 + 4 + 4 + 8 + 4 + 4; // header + level + count
    for (const auto &poly : ct.polys)
        size += 12 + poly.data().size() * 4;
    return size;
}

void
saveSecretKey(const FvParams &params, const SecretKey &sk,
              std::ostream &out)
{
    writeHeader(out, PayloadKind::kSecretKey, paramsFingerprint(params));
    writePoly(out, sk.s_ntt);
}

SecretKey
loadSecretKey(const std::shared_ptr<const FvParams> &params,
              std::istream &in)
{
    readHeader(in, PayloadKind::kSecretKey, paramsFingerprint(*params));
    return SecretKey{readPoly(params, in)};
}

void
savePublicKey(const FvParams &params, const PublicKey &pk,
              std::ostream &out)
{
    writeHeader(out, PayloadKind::kPublicKey, paramsFingerprint(params));
    writePoly(out, pk.p0_ntt);
    writePoly(out, pk.p1_ntt);
}

PublicKey
loadPublicKey(const std::shared_ptr<const FvParams> &params,
              std::istream &in)
{
    readHeader(in, PayloadKind::kPublicKey, paramsFingerprint(*params));
    ntt::RnsPoly p0 = readPoly(params, in);
    ntt::RnsPoly p1 = readPoly(params, in);
    return PublicKey{std::move(p0), std::move(p1)};
}

void
saveRelinKeys(const FvParams &params, const RelinKeys &rlk,
              std::ostream &out)
{
    writeHeader(out, PayloadKind::kRelinKeys, paramsFingerprint(params));
    writeRelinPayload(out, rlk);
}

RelinKeys
loadRelinKeys(const std::shared_ptr<const FvParams> &params,
              std::istream &in)
{
    readHeader(in, PayloadKind::kRelinKeys, paramsFingerprint(*params));
    return readRelinPayload(params, in);
}

void
saveGaloisKeys(const FvParams &params, const GaloisKeys &gkeys,
               std::ostream &out)
{
    writeHeader(out, PayloadKind::kGaloisKeys, paramsFingerprint(params));
    writeU32(out, static_cast<uint32_t>(gkeys.keys.size()));
    for (const auto &[element, key] : gkeys.keys) {
        writeU32(out, element);
        writeRelinPayload(out, key);
    }
}

GaloisKeys
loadGaloisKeys(const std::shared_ptr<const FvParams> &params,
               std::istream &in)
{
    readHeader(in, PayloadKind::kGaloisKeys, paramsFingerprint(*params));
    GaloisKeys gkeys;
    const uint32_t count = readU32(in);
    for (uint32_t i = 0; i < count; ++i) {
        const uint32_t element = readU32(in);
        fatalIf(!isValidGaloisElement(element, params->degree()),
                "Galois key stream names element ", element,
                ", which is not odd and < 2n");
        gkeys.keys.emplace(element, readRelinPayload(params, in));
    }
    return gkeys;
}

} // namespace heat::fv
