/**
 * @file
 * RNS base conversion: the Lift q->Q primitive of the paper.
 *
 * Two implementations are provided, mirroring the two coprocessor
 * architectures of Sec. IV-C:
 *
 *  - FastBaseConverter: the HPS (Halevi-Polyakov-Shoup, ePrint 2018/117)
 *    approximate-CRT method. The quotient v' = round(sum lambda_i / q_i)
 *    is evaluated in fixed point with per-prime reciprocals 1/q_i stored
 *    to 89 fractional bits (for 30-bit primes the top 29 fractional bits
 *    are zero, so a 30x60-bit multiply suffices — the paper's Block 3
 *    trick). The conversion maps x in [0, q) to its *centered*
 *    representative in (-q/2, q/2] expressed in the target base, which is
 *    exactly what FV multiplication wants. convertBatch runs it as the
 *    dispatched hps_convert kernel: per vector of coefficients, the
 *    lambdas, v' and every output sum stay in registers, each output a
 *    64-bit sum of products reduced once.
 *
 *  - exact conversion via BigInt CRT reconstruction (the "traditional"
 *    datapath and the golden model for tests).
 */

#ifndef HEAT_RNS_BASE_CONVERT_H
#define HEAT_RNS_BASE_CONVERT_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rns/rns_base.h"
#include "simd/simd.h"

namespace heat::rns {

/** Converts RNS representations from one base to another (HPS method). */
class FastBaseConverter
{
  public:
    FastBaseConverter() = default;

    /**
     * Prepare conversion from @p from to @p to (bases must be coprime).
     */
    FastBaseConverter(const RnsBase &from, const RnsBase &to);

    /** @return source base. */
    const RnsBase &fromBase() const { return from_; }

    /** @return destination base. */
    const RnsBase &toBase() const { return to_; }

    /**
     * Compute lambda_i = [x_i * q~_i] mod q_i for one coefficient; this is
     * the paper's Lift Block 1.
     *
     * @param in residues of x in the source base.
     * @param lambda receives the lambda values (resized to from.size()).
     */
    void computeLambdas(std::span<const uint64_t> in,
                        std::vector<uint64_t> &lambda) const;

    /**
     * Compute the rounded quotient v' = round(sum lambda_i / q_i) using
     * the fixed-point reciprocal table; the paper's Lift Block 3/4 input.
     */
    uint64_t roundedQuotient(std::span<const uint64_t> lambda) const;

    /**
     * Convert one coefficient. Output residues represent the centered
     * value of x in (-q/2, q/2] modulo each destination prime.
     *
     * @param in residues in the source base (size from.size()).
     * @param out receives residues in the destination base.
     */
    void convert(std::span<const uint64_t> in,
                 std::span<uint64_t> out) const;

    /**
     * Convert a block of @p count coefficients at once.
     *
     * @param in_rows fromBase().size() pointers, one per source residue
     *                row of count values (RnsPoly residue-major layout).
     * @param out_rows toBase().size() pointers receiving count values.
     *
     * Bit-identical to count calls of convert(). One call of the
     * dispatched hps_convert kernel, with no scratch, when batchPlan()
     * exists; else a per-coefficient gather/convert/scatter loop.
     */
    void convertBatch(const uint64_t *const *in_rows,
                      uint64_t *const *out_rows, size_t count) const;

    /**
     * Exact reference conversion (BigInt CRT; centered). Used by the
     * traditional-CRT architecture model and as the test oracle.
     */
    void convertExact(std::span<const uint64_t> in,
                      std::span<uint64_t> out) const;

    /** Fixed-point fractional bits used for the 1/q_i reciprocals. */
    int reciprocalFracBits() const { return frac_bits_; }

    /** @return reciprocal table entry round(2^frac_bits / q_i). */
    uint64_t reciprocal(size_t i) const { return recip_[i]; }

    /**
     * @return the hps_convert kernel's constants, or nullptr when a
     * prime of either base reaches simd::kLaneModulusBound or the
     * source base exceeds simd::kHpsMaxTerms (the per-coefficient
     * path then serves convertBatch).
     */
    const simd::HpsConvertPlan *
    batchPlan() const
    {
        return plan_ ? &*plan_ : nullptr;
    }

  private:
    RnsBase from_;
    RnsBase to_;
    int frac_bits_ = 0;
    /** recip_[i] = round(2^frac_bits / q_i). */
    std::vector<uint64_t> recip_;
    /** qstar_mod_[i][j] = (q / q_i) mod b_j. */
    std::vector<std::vector<uint64_t>> qstar_mod_;
    /** q_mod_[j] = q mod b_j. */
    std::vector<uint64_t> q_mod_;

    std::optional<simd::HpsConvertPlan> plan_;
};

} // namespace heat::rns

#endif // HEAT_RNS_BASE_CONVERT_H
