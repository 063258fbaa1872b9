/**
 * @file
 * Randomness for FV: uniform ring elements, signed-binary (ternary)
 * secrets, and the sigma = 102 discrete Gaussian error distribution
 * sampled through a cumulative distribution table (CDT).
 *
 * Set-up (key generation, encryption) runs on the host, so the
 * samplers are written to cost about what their draws cost: each
 * polynomial is filled through its flat residue-major data, rejection
 * limits are computed once per bound, residues of uniform draws come
 * from a Barrett reduction, small signed values are lifted into each
 * residue without a division, and a CDT draw is a branchless search.
 * The stream of random words consumed, and so every sample for a
 * seed, is that of the plain per-element definitions.
 */

#ifndef HEAT_FV_SAMPLER_H
#define HEAT_FV_SAMPLER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "fv/params.h"
#include "ntt/rns_poly.h"

namespace heat::fv {

/**
 * The discrete Gaussian's cumulative distribution table, tail-cut at
 * 12 sigma, with its branchless search.
 */
class GaussianCdt
{
  public:
    explicit GaussianCdt(double sigma);

    /** entries()[k] = P(|X| <= k) scaled to 2^63; the last is 2^63. */
    const std::vector<uint64_t> &entries() const { return cdt_; }

    /**
     * @return the smallest k with entries()[k] > @p u, for u < 2^63:
     * the count of entries <= u (the table is nondecreasing and its
     * last entry exceeds u), built one bit at a time, high bit first,
     * over a copy padded with 2^63 to a power-of-two size.
     */
    size_t
    search(uint64_t u) const
    {
        const uint64_t *table = padded_.data();
        size_t k = 0;
        for (size_t step = padded_.size() / 2; step > 0; step /= 2)
            k += step & (0 - static_cast<size_t>(table[k + step - 1] <= u));
        return k;
    }

  private:
    std::vector<uint64_t> cdt_;
    std::vector<uint64_t> padded_;
};

/** Samples the polynomials FV needs, deterministically from a seed. */
class Sampler
{
  public:
    /**
     * @param params parameter set (fixes degree, bases and sigma).
     * @param seed PRNG seed; equal seeds reproduce identical samples.
     */
    Sampler(std::shared_ptr<const FvParams> params, uint64_t seed);

    /** Uniformly random polynomial over R_q (independent residues). */
    ntt::RnsPoly uniformQ();

    /**
     * Polynomial with coefficients uniform in {-1, 0, 1} over R_q
     * ("uniformly random signed binary" in the paper's words).
     */
    ntt::RnsPoly ternaryQ();

    /** Discrete Gaussian error polynomial over R_q. */
    ntt::RnsPoly gaussianQ();

    /**
     * One discrete Gaussian sample (signed): one 64-bit draw, its low
     * bit the sign and its top 63 bits searched in the CDT.
     */
    int64_t gaussianScalar();

    /** @return the CDT tail cut: the largest magnitude a draw can
     *  return (one less than the table size). */
    int64_t
    tailBound() const
    {
        return static_cast<int64_t>(cdt_.entries().size()) - 1;
    }

  private:
    std::shared_ptr<const FvParams> params_;
    Xoshiro256 rng_;
    GaussianCdt cdt_;
};

} // namespace heat::fv

#endif // HEAT_FV_SAMPLER_H
