#include "fv/encryptor.h"

#include "fv/evaluator.h"

namespace heat::fv {

Encryptor::Encryptor(std::shared_ptr<const FvParams> params, PublicKey pk,
                     uint64_t seed)
    : params_(params), pk_(std::move(pk)), sampler_(params, seed)
{
}

ntt::RnsPoly
Encryptor::scalePlainToQ(const Plaintext &plain) const
{
    return Evaluator(params_).scaledPlain(plain);
}

Ciphertext
Encryptor::encrypt(const Plaintext &plain)
{
    Ciphertext ct = encryptZero();
    ct[0].addInPlace(scalePlainToQ(plain));
    return ct;
}

Ciphertext
Encryptor::encryptZero()
{
    ntt::RnsPoly u = sampler_.ternaryQ();
    u.toNtt(params_->qContext());

    // c0 = INTT(p0 * u) + e1 ; c1 = INTT(p1 * u) + e2.
    ntt::RnsPoly c0 = pk_.p0_ntt;
    c0.mulPointwiseInPlace(u);
    c0.toCoeff(params_->qContext());
    c0.addInPlace(sampler_.gaussianQ());

    ntt::RnsPoly c1 = pk_.p1_ntt;
    c1.mulPointwiseInPlace(u);
    c1.toCoeff(params_->qContext());
    c1.addInPlace(sampler_.gaussianQ());

    Ciphertext ct;
    ct.polys.push_back(std::move(c0));
    ct.polys.push_back(std::move(c1));
    return ct;
}

} // namespace heat::fv
