#include "fv/keygen.h"

#include "common/panic.h"
#include "simd/simd.h"

namespace heat::fv {

KeyGenerator::KeyGenerator(std::shared_ptr<const FvParams> params,
                           uint64_t seed)
    : params_(params), sampler_(params, seed)
{
}

SecretKey
KeyGenerator::generateSecretKey()
{
    ntt::RnsPoly s = sampler_.ternaryQ();
    s.toNtt(params_->qContext());
    return SecretKey{std::move(s)};
}

PublicKey
KeyGenerator::generatePublicKey(const SecretKey &sk)
{
    // p0 = -(a*s + e), p1 = a, all in the NTT domain.
    auto [p0, a] = maskedPair(sk);
    return PublicKey{std::move(p0), std::move(a)};
}

std::array<ntt::RnsPoly, 2>
KeyGenerator::maskedPair(const SecretKey &sk)
{
    ntt::RnsPoly a = sampler_.uniformQ();
    ntt::RnsPoly e = sampler_.gaussianQ();
    a.toNtt(params_->qContext());
    e.toNtt(params_->qContext());
    // -(a s + e), built in e's buffer.
    e.addMulPointwise(a, sk.s_ntt);
    e.negateInPlace();
    return {std::move(e), std::move(a)};
}

ntt::RnsPoly
KeyGenerator::squareSecret(const SecretKey &sk) const
{
    ntt::RnsPoly s2 = sk.s_ntt;
    s2.mulPointwiseInPlace(sk.s_ntt);
    return s2;
}

RelinKeys
KeyGenerator::makeKeySwitchKeys(const SecretKey &sk,
                                const ntt::RnsPoly &target_ntt)
{
    const size_t digits = params_->rnsDigitCount();
    RelinKeys keys;
    keys.kind = DecompKind::kRnsDigits;
    keys.keys.reserve(digits);
    for (size_t i = 0; i < digits; ++i) {
        // key0_i = -(a s + e) + f_i * target with f_i the CRT unit
        // vector: f_i = q~_i q*_i mod q is 1 mod q_i and 0 mod every
        // other prime, so only residue i of the target survives.
        std::array<ntt::RnsPoly, 2> key = maskedPair(sk);
        simd::active().add_mod(key[0].residue(i).data(),
                               target_ntt.residue(i).data(),
                               params_->degree(),
                               params_->qBase()->modulus(i).value());
        keys.keys.push_back(std::move(key));
    }
    return keys;
}

RelinKeys
KeyGenerator::generateRelinKeys(const SecretKey &sk)
{
    return makeKeySwitchKeys(sk, squareSecret(sk));
}

GaloisKeys
KeyGenerator::generateGaloisKeys(const SecretKey &sk,
                                 const std::vector<uint32_t> &elements)
{
    const size_t n = params_->degree();
    ntt::RnsPoly s_coeff = sk.s_ntt;
    s_coeff.toCoeff(params_->qContext());
    GaloisKeys gkeys;
    for (uint32_t g : elements) {
        if (gkeys.has(g))
            continue;
        // Build s(x^g) in NTT form: permute the coefficient-form secret.
        ntt::RnsPoly s_g(params_->qBase(), n, ntt::PolyForm::kCoeff);
        for (size_t k = 0; k < s_coeff.residueCount(); ++k) {
            applyGaloisToResidue(s_coeff.residue(k), s_g.residue(k), g,
                                 params_->qBase()->modulus(k));
        }
        s_g.toNtt(params_->qContext());
        gkeys.keys.emplace(g, makeKeySwitchKeys(sk, s_g));
    }
    return gkeys;
}

GaloisKeys
KeyGenerator::generateRotationKeys(const SecretKey &sk)
{
    const size_t n = params_->degree();
    std::vector<uint32_t> elements;
    for (size_t step = 1; step <= n / 4; step *= 2) {
        elements.push_back(
            galoisElementForStep(static_cast<int>(step), n));
        elements.push_back(
            galoisElementForStep(-static_cast<int>(step), n));
    }
    elements.push_back(static_cast<uint32_t>(2 * n - 1)); // column swap
    return generateGaloisKeys(sk, elements);
}

RelinKeys
KeyGenerator::generatePositionalRelinKeys(const SecretKey &sk,
                                          int digit_bits)
{
    fatalIf(digit_bits < 1 || digit_bits > 180, "bad digit width");
    const int q_bits = params_->qBits();
    const size_t digits =
        (static_cast<size_t>(q_bits) + digit_bits - 1) / digit_bits;
    const ntt::RnsPoly s2 = squareSecret(sk);
    const auto &q_base = *params_->qBase();

    RelinKeys rlk;
    rlk.kind = DecompKind::kPositional;
    rlk.digit_bits = digit_bits;
    rlk.keys.reserve(digits);
    mp::BigInt w_pow(1);
    for (size_t i = 0; i < digits; ++i) {
        std::array<ntt::RnsPoly, 2> key = maskedPair(sk);

        // f_i = w^i mod q as a scalar in RNS.
        std::vector<uint64_t> f(q_base.size());
        for (size_t k = 0; k < q_base.size(); ++k)
            f[k] = w_pow.modUint64(q_base.modulus(k).value());
        ntt::RnsPoly f_s2 = s2;
        f_s2.mulScalarInPlace(f);
        key[0].addInPlace(f_s2);

        rlk.keys.push_back(std::move(key));
        w_pow = (w_pow << digit_bits).mod(q_base.product());
    }
    return rlk;
}

} // namespace heat::fv
