/**
 * @file
 * FV key material: secret key, public key, relinearization keys, and the
 * plaintext/ciphertext containers.
 *
 * Two relinearization key flavours exist, matching the paper's two
 * coprocessor architectures (Sec. VI-C):
 *
 *  - kRnsDigits: one key pair per q-base prime (6 for the paper set).
 *    The WordDecomp digit for prime i is simply the i-th residue
 *    polynomial broadcast to every channel — the "cheap bit-level
 *    manipulation" enabled by the HPS datapath.
 *  - kPositional: base-2^90 positional digits (2 keys — the "three times
 *    smaller relinearization key" of the slower traditional-CRT
 *    architecture, which materializes positional coefficients anyway).
 */

#ifndef HEAT_FV_KEYS_H
#define HEAT_FV_KEYS_H

#include <array>
#include <cstdint>
#include <vector>

#include "ntt/rns_poly.h"

namespace heat::fv {

/** A plaintext polynomial: coefficients modulo t, degree < n. */
struct Plaintext
{
    std::vector<uint64_t> coeffs;

    Plaintext() = default;
    explicit Plaintext(std::vector<uint64_t> c) : coeffs(std::move(c)) {}

    bool operator==(const Plaintext &o) const = default;
};

/** A ciphertext: 2 polynomials over R_q (3 before relinearization). */
struct Ciphertext
{
    std::vector<ntt::RnsPoly> polys;
    /**
     * Modulus-switching level: the polys live over the first
     * qPrimeCount(level) primes of the parameter set's q base. Fresh
     * encryptions are level 0; every fv::Evaluator::modSwitch moves one
     * level down. Operands of binary evaluator ops must agree.
     */
    size_t level = 0;

    size_t size() const { return polys.size(); }
    ntt::RnsPoly &operator[](size_t i) { return polys[i]; }
    const ntt::RnsPoly &operator[](size_t i) const { return polys[i]; }

    bool operator==(const Ciphertext &o) const = default;
};

/** Secret key: ternary s, stored in NTT form over the q base. */
struct SecretKey
{
    ntt::RnsPoly s_ntt;
};

/** Public key (p0, p1) = (-(a s + e), a), stored in NTT form. */
struct PublicKey
{
    ntt::RnsPoly p0_ntt;
    ntt::RnsPoly p1_ntt;
};

/** How ciphertext digits are decomposed for relinearization. */
enum class DecompKind
{
    kRnsDigits,  ///< one digit per RNS prime (HPS architecture)
    kPositional, ///< base-2^w positional digits (traditional architecture)
};

/** Relinearization keys: rlk_i = (-(a_i s + e_i) + f_i s^2, a_i). */
struct RelinKeys
{
    DecompKind kind = DecompKind::kRnsDigits;
    /** Digit width in bits for kPositional (ignored for kRnsDigits). */
    int digit_bits = 0;
    /** keys[i] = {rlk0_i, rlk1_i}, both in NTT form over q. */
    std::vector<std::array<ntt::RnsPoly, 2>> keys;

    size_t digitCount() const { return keys.size(); }

    /** Serialized size in bytes (30-bit residues in 32-bit words). */
    size_t byteSize() const;
};

} // namespace heat::fv

#endif // HEAT_FV_KEYS_H
