#include "hw/coeff_unit.h"

#include "common/panic.h"
#include "simd/simd.h"

namespace heat::hw {

namespace {

void
checkSizes(std::span<uint64_t> dst, std::span<const uint64_t> a,
           std::span<const uint64_t> b)
{
    panicIf(dst.size() != a.size() || a.size() != b.size(),
            "coeff unit operand size mismatch");
}

} // namespace

void
CoeffUnit::mul(std::span<uint64_t> dst, std::span<const uint64_t> a,
               std::span<const uint64_t> b, const rns::Modulus &q) const
{
    checkSizes(dst, a, b);
    // The hardware multiplies in the DSP array and reduces through the
    // sliding-window circuit (ModReduceUnit); for canonical operands
    // that is the canonical product the dyadic kernel computes.
    simd::active().mul_mod_out(dst.data(), a.data(), b.data(), dst.size(),
                               q);
}

void
CoeffUnit::add(std::span<uint64_t> dst, std::span<const uint64_t> a,
               std::span<const uint64_t> b, const rns::Modulus &q) const
{
    checkSizes(dst, a, b);
    simd::active().add_mod_out(dst.data(), a.data(), b.data(), dst.size(),
                               q.value());
}

void
CoeffUnit::sub(std::span<uint64_t> dst, std::span<const uint64_t> a,
               std::span<const uint64_t> b, const rns::Modulus &q) const
{
    checkSizes(dst, a, b);
    simd::active().sub_mod_out(dst.data(), a.data(), b.data(), dst.size(),
                               q.value());
}

} // namespace heat::hw
