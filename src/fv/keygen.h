/**
 * @file
 * Key generation for the FV scheme (Fig. 1 of the paper plus the
 * relinearization keys consumed by FV.Mult in Fig. 2).
 */

#ifndef HEAT_FV_KEYGEN_H
#define HEAT_FV_KEYGEN_H

#include <array>
#include <memory>

#include "fv/galois.h"
#include "fv/keys.h"
#include "fv/params.h"
#include "fv/sampler.h"

namespace heat::fv {

/** Generates FV key material deterministically from a seed. */
class KeyGenerator
{
  public:
    /**
     * @param params the parameter set.
     * @param seed PRNG seed for reproducible keys.
     */
    KeyGenerator(std::shared_ptr<const FvParams> params, uint64_t seed);

    /** Sample a fresh ternary secret key. */
    SecretKey generateSecretKey();

    /** Derive a public key (p0, p1) = (-(a s + e), a). */
    PublicKey generatePublicKey(const SecretKey &sk);

    /**
     * RNS-digit relinearization keys (the faster architecture):
     * rlk0_i = -(a_i s + e_i) + f_i s^2 where f_i has RNS residues
     * (0, ..., 1, ..., 0) — the CRT unit vector q~_i q*_i mod q.
     */
    RelinKeys generateRelinKeys(const SecretKey &sk);

    /**
     * Positional relinearization keys with digits of @p digit_bits bits
     * (the traditional architecture's 2-element key uses 90).
     */
    RelinKeys generatePositionalRelinKeys(const SecretKey &sk,
                                          int digit_bits = 90);

    /**
     * Galois keys for the given Galois elements (odd, < 2n). Each key
     * switches a ciphertext encrypted under s(x^g) back to s.
     */
    GaloisKeys generateGaloisKeys(const SecretKey &sk,
                                  const std::vector<uint32_t> &elements);

    /**
     * Galois keys for slot rotations by each power-of-two step up to
     * n/4 in both directions, plus the column-swap element 2n-1 —
     * enough to compose any rotation and to sum across all slots.
     */
    GaloisKeys generateRotationKeys(const SecretKey &sk);

  private:
    /**
     * Sample a uniform a and a Gaussian e and return {-(a s + e), a},
     * both in NTT form over q: the pair every key is built from.
     */
    std::array<ntt::RnsPoly, 2> maskedPair(const SecretKey &sk);

    /** s^2 in NTT form over q. */
    ntt::RnsPoly squareSecret(const SecretKey &sk) const;

    /** Key-switching keys embedding @p target (NTT form) per digit. */
    RelinKeys makeKeySwitchKeys(const SecretKey &sk,
                                const ntt::RnsPoly &target_ntt);

    std::shared_ptr<const FvParams> params_;
    Sampler sampler_;
};

} // namespace heat::fv

#endif // HEAT_FV_KEYGEN_H
