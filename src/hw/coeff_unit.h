/**
 * @file
 * Coefficient-wise arithmetic unit of an RPAU.
 *
 * Executes the Coeff-wise Multiplication/Addition/Subtraction
 * instructions: one 60-bit word (two coefficients) per cycle streamed
 * through the two multiplier/adder lanes, reusing the butterfly cores'
 * arithmetic (Fig. 4 datapath without the butterfly cross-connection).
 * Functionally each instruction is one dispatched out-of-place
 * heat::simd dyadic kernel per residue row (mul_mod_out, add_mod_out,
 * sub_mod_out: the operands stream in and the result streams to dst,
 * with no staging copy), bit-identical to the element-wise model.
 */

#ifndef HEAT_HW_COEFF_UNIT_H
#define HEAT_HW_COEFF_UNIT_H

#include <cstdint>
#include <span>

#include "hw/config.h"
#include "rns/modulus.h"

namespace heat::hw {

/** Element-wise polynomial arithmetic: functional + timing. */
class CoeffUnit
{
  public:
    explicit CoeffUnit(const HwConfig &config) : config_(config) {}

    /**
     * dst = a * b mod q, element-wise; operands canonical in [0, q).
     * Equals the DSP product reduced by the sliding-window circuit.
     * @p dst may alias @p a or @p b (here and in add/sub).
     */
    void mul(std::span<uint64_t> dst, std::span<const uint64_t> a,
             std::span<const uint64_t> b, const rns::Modulus &q) const;

    /** dst = a + b mod q. */
    void add(std::span<uint64_t> dst, std::span<const uint64_t> a,
             std::span<const uint64_t> b, const rns::Modulus &q) const;

    /** dst = a - b mod q. */
    void sub(std::span<uint64_t> dst, std::span<const uint64_t> a,
             std::span<const uint64_t> b, const rns::Modulus &q) const;

    /** Cycles for one instruction over an n-coefficient polynomial. */
    Cycle
    cycles(size_t degree) const
    {
        return static_cast<Cycle>(degree / 2 +
                                  config_.coeff_pipeline_depth);
    }

  private:
    HwConfig config_;
};

} // namespace heat::hw

#endif // HEAT_HW_COEFF_UNIT_H
