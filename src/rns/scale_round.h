/**
 * @file
 * The Scale Q->q primitive: divide by q with rounding, in RNS.
 *
 * Given x in the extended base Q = q * p (representing the centered tensor
 * coefficient), compute y = round(t * x / q) expressed in the base p, then
 * (at the caller's discretion) switch y from base p back to base q with a
 * FastBaseConverter — exactly the paper's Fig. 9 Block 1-5 structure:
 *
 *   Block 1: sopR   = sum_i x_i * R_i           (fractional MACs)
 *   Block 2: sopI_j = sum_i x_i * (I_i mod q_j) (7 modular MAC lanes)
 *   Block 3: a'_j   = x_j * [t * Q~_j * (p/q_j)] mod q_j
 *   Block 4: y_j    = sopI_j + round(sopR) + a'_j  mod q_j
 *   Block 5: base switch p -> q (reuses the Lift datapath)
 *
 * where I_i + R_i = t * Q~_i * p / q_i split into integer and fractional
 * parts, R_i kept to 60 fractional bits (paper Sec. V-C). The key
 * identities making this work: p = 0 (mod q_j) kills both the CRT overflow
 * term gamma*t*p and the cross terms, so no explicit alpha correction is
 * needed for the p-base outputs.
 *
 * scaleBatch streams a block of coefficients through the same blocks as
 * the hardware does, one pass per vector of coefficients: the dispatched
 * hps_scale kernel computes Block 1 exactly, Blocks 2-4 as one 64-bit
 * sum of products per p prime, and, given the back converter, Block 5
 * and the WordDecomp digit broadcast from the same registers.
 */

#ifndef HEAT_RNS_SCALE_ROUND_H
#define HEAT_RNS_SCALE_ROUND_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rns/base_convert.h"
#include "rns/rns_base.h"
#include "simd/simd.h"

namespace heat::rns {

/** Computes round(t * x / q) in the auxiliary base p (HPS method). */
class ScaleRounder
{
  public:
    ScaleRounder() = default;

    /**
     * Prepare scaling for moduli chain Q = q * p and plaintext modulus t.
     *
     * @param q_base the ciphertext base q.
     * @param p_base the auxiliary base p (coprime to q).
     * @param t plaintext modulus.
     */
    ScaleRounder(const RnsBase &q_base, const RnsBase &p_base, uint64_t t);

    /** @return the ciphertext base q. */
    const RnsBase &qBase() const { return q_; }

    /** @return the auxiliary base p. */
    const RnsBase &pBase() const { return p_; }

    /**
     * Scale one coefficient.
     *
     * @param in residues of x in the full base Q: first q.size() entries
     *           are the q-base residues, then p.size() p-base residues.
     * @param out receives residues of round(t*x/q) in the p base.
     */
    void scale(std::span<const uint64_t> in, std::span<uint64_t> out) const;

    /**
     * Scale a block of @p count coefficients at once, optionally
     * switching the result on to another base in the same pass.
     *
     * @param in_rows qBase().size() + pBase().size() pointers, one per
     *                full-base residue row, each holding count values
     *                (i.e. RnsPoly residue-major layout).
     * @param out_rows pBase().size() pointers receiving count scaled
     *                 values each; with @p back, back->toBase().size()
     *                 pointers receiving the scaled values in that base.
     * @param back optional converter from pBase() (Block 5: Scale's
     *             p -> q switch).
     * @param broadcast_rows optional, with @p back only: k * k rows
     *        (k = back->toBase().size()); row d * k + c receives output
     *        row d reduced modulo destination prime c (the WordDecomp
     *        digit broadcast).
     *
     * Bit-identical to count calls of scale() (then back->convert()).
     * One call of the dispatched hps_scale kernel, with no scratch,
     * when both plans exist (every prime below the SIMD lane bound,
     * q base within simd::kHpsMaxTerms - 1); otherwise a
     * per-coefficient gather/scale/scatter loop.
     */
    void scaleBatch(const uint64_t *const *in_rows,
                    uint64_t *const *out_rows, size_t count,
                    const FastBaseConverter *back = nullptr,
                    uint64_t *const *broadcast_rows = nullptr) const;

    /**
     * Exact reference (BigInt): y = round-half-up(t * centered(x) / q),
     * reduced modulo each p-base prime. Oracle for tests and the model
     * for the traditional-CRT architecture.
     */
    void scaleExact(std::span<const uint64_t> in,
                    std::span<uint64_t> out) const;

    /** Fixed-point fractional bits used for the R_i constants. */
    static constexpr int kFracBits = 60;

    /**
     * @return the hps_scale kernel's constants, or nullptr when a
     * full-base prime reaches simd::kLaneModulusBound or the q base
     * exceeds simd::kHpsMaxTerms - 1 (the per-coefficient path then
     * serves scaleBatch).
     */
    const simd::HpsScalePlan *
    batchPlan() const
    {
        return plan_ ? &*plan_ : nullptr;
    }

  private:
    RnsBase q_;
    RnsBase p_;
    RnsBase full_; // q then p
    uint64_t t_ = 0;

    /** rfrac_[i] = round(frac(t * Q~_i * p / q_i) * 2^60). */
    std::vector<uint64_t> rfrac_;
    /** imod_[i][j] = floor(t * Q~_i * p / q_i) mod p_j. */
    std::vector<std::vector<uint64_t>> imod_;
    /** cj_[j] = [t * Q~_j * (p / q_j)] mod p_j. */
    std::vector<uint64_t> cj_;

    std::optional<simd::HpsScalePlan> plan_;
};

} // namespace heat::rns

#endif // HEAT_RNS_SCALE_ROUND_H
