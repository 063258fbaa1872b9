/**
 * @file
 * Galois automorphisms and slot rotations — the standard FV/BFV
 * extension beyond the paper's core operation set (SEAL exposes the
 * same capability; the paper's applications such as encrypted search
 * and aggregation benefit directly).
 *
 * The automorphism tau_g: m(x) -> m(x^g) for odd g modulo 2n is a
 * plaintext-slot permutation. Applying it to a ciphertext yields an
 * encryption under the rotated secret s(x^g); a key-switch with a
 * Galois key (structurally identical to a relinearization key, but
 * embedding s(x^g) instead of s^2) returns to the original secret.
 */

#ifndef HEAT_FV_GALOIS_H
#define HEAT_FV_GALOIS_H

#include <cstdint>
#include <map>
#include <vector>

#include "fv/keys.h"

namespace heat::fv {

/** Key-switching keys for a set of Galois elements. */
struct GaloisKeys
{
    /** keys[g] switches from s(x^g) back to s. */
    std::map<uint32_t, RelinKeys> keys;

    bool
    has(uint32_t galois_element) const
    {
        return keys.count(galois_element) != 0;
    }
};

/**
 * @return true iff @p g names an automorphism of the degree-@p degree
 * ring: odd and below 2n. Every boundary that accepts a Galois element
 * from outside (key streams, compiled circuits, session keys) checks
 * this one predicate; the permutations below panic on anything else.
 */
bool isValidGaloisElement(uint32_t g, size_t degree);

/**
 * Apply tau_g to a polynomial in coefficient representation:
 * coefficient i moves to index i*g mod 2n, negated when the product
 * wraps past n (x^n = -1).
 *
 * @param in input residues (length n), natural order.
 * @param out output residues (length n).
 * @param g odd Galois element in (0, 2n).
 * @param modulus coefficient modulus of this residue.
 */
void applyGaloisToResidue(std::span<const uint64_t> in,
                          std::span<uint64_t> out, uint32_t g,
                          const rns::Modulus &modulus);

/**
 * The index map of tau_g on NTT-domain data: out[j] = in[map[j]] for
 * every residue and every level, with no sign flips. Slot j of the
 * repo's forward NTT (bit-reversed output order) is the evaluation at
 * psi^(2*bitrev(j)+1), and tau_g moves the value at exponent e*g to
 * exponent e, so map[j] = bitrev((((2*bitrev(j)+1)*g mod 2n) - 1) / 2).
 * The same map permutes batched plaintext slots
 * (BatchEncoder::slotPermutation) and NTT-domain ciphertext residues
 * (the coprocessor's kAutomorph).
 *
 * @param degree ring degree n (a power of two).
 * @param g odd Galois element in (0, 2n).
 */
std::vector<size_t> galoisNttIndexMap(size_t degree, uint32_t g);

/**
 * @return the period of the slot-row rotation: the multiplicative
 * order of 3 modulo 2n (= n/2 for the power-of-two rings used here).
 * Rotating by the period is the identity permutation, so rotation
 * steps are only meaningful modulo this value.
 */
size_t rotationStepPeriod(size_t degree);

/**
 * Normalize a rotation step count into the canonical range
 * [0, rotationStepPeriod(degree)). Steps congruent modulo the row
 * length describe the same slot permutation — and therefore the same
 * Galois element and key — so every step-consuming API reduces
 * through here; a result of 0 means the rotation is the identity.
 */
int normalizeRotationSteps(int64_t steps, size_t degree);

/** @return the Galois element rotating batched slots by @p steps:
 *  3^steps mod 2n (negative steps rotate the other way; steps are
 *  normalized with normalizeRotationSteps, so congruent step counts
 *  always yield the same element and step 0 yields element 1). */
uint32_t galoisElementForStep(int steps, size_t degree);

} // namespace heat::fv

#endif // HEAT_FV_GALOIS_H
