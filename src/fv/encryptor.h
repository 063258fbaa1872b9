/**
 * @file
 * FV encryption (Fig. 1): c0 = p0 u + e1 + Delta m, c1 = p1 u + e2
 * with u ternary and e1, e2 discrete Gaussian.
 */

#ifndef HEAT_FV_ENCRYPTOR_H
#define HEAT_FV_ENCRYPTOR_H

#include <memory>

#include "fv/keys.h"
#include "fv/params.h"
#include "fv/sampler.h"

namespace heat::fv {

/** Encrypts plaintexts under a public key. */
class Encryptor
{
  public:
    /**
     * @param params parameter set.
     * @param pk public key.
     * @param seed randomness seed.
     */
    Encryptor(std::shared_ptr<const FvParams> params, PublicKey pk,
              uint64_t seed);

    /** Encrypt @p plain (coefficients reduced mod t). */
    Ciphertext encrypt(const Plaintext &plain);

    /** Encrypt the zero polynomial. */
    Ciphertext encryptZero();

    /**
     * Embed a plaintext into R_q scaled by Delta, as a noiseless
     * "ciphertext half" (used for plaintext addition and tests); the
     * level-0 Evaluator::scaledPlain.
     */
    ntt::RnsPoly scalePlainToQ(const Plaintext &plain) const;

  private:
    std::shared_ptr<const FvParams> params_;
    PublicKey pk_;
    Sampler sampler_;
};

} // namespace heat::fv

#endif // HEAT_FV_ENCRYPTOR_H
