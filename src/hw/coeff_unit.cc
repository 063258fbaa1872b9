#include "hw/coeff_unit.h"

#include <algorithm>

#include "common/panic.h"
#include "simd/simd.h"

namespace heat::hw {

namespace {

/**
 * Stage dst = a (op) b for a dyadic kernel that updates its first
 * operand in place: @return the operand to combine into @p dst. Records
 * alias whole rows, so @p dst is one of the operands or disjoint from
 * both. When it is @p b the operands swap, so only commutative ops may
 * take that case.
 */
const uint64_t *
inPlaceOperand(std::span<uint64_t> dst, std::span<const uint64_t> a,
               std::span<const uint64_t> b)
{
    panicIf(dst.size() != a.size() || a.size() != b.size(),
            "coeff unit operand size mismatch");
    if (dst.data() == b.data())
        return a.data();
    if (dst.data() != a.data())
        std::copy(a.begin(), a.end(), dst.begin());
    return b.data();
}

} // namespace

void
CoeffUnit::mul(std::span<uint64_t> dst, std::span<const uint64_t> a,
               std::span<const uint64_t> b, const rns::Modulus &q) const
{
    // The hardware multiplies in the DSP array and reduces through the
    // sliding-window circuit (ModReduceUnit); for canonical operands
    // that is the canonical product the dyadic kernel computes.
    simd::active().mul_mod(dst.data(), inPlaceOperand(dst, a, b),
                           dst.size(), q);
}

void
CoeffUnit::add(std::span<uint64_t> dst, std::span<const uint64_t> a,
               std::span<const uint64_t> b, const rns::Modulus &q) const
{
    simd::active().add_mod(dst.data(), inPlaceOperand(dst, a, b),
                           dst.size(), q.value());
}

void
CoeffUnit::sub(std::span<uint64_t> dst, std::span<const uint64_t> a,
               std::span<const uint64_t> b, const rns::Modulus &q) const
{
    const simd::Kernels &kern = simd::active();
    if (dst.data() == b.data() && dst.data() != a.data()) {
        panicIf(dst.size() != a.size() || a.size() != b.size(),
                "coeff unit operand size mismatch");
        // dst = -b + a: both steps are canonical, so this is a - b.
        kern.negate_mod(dst.data(), dst.size(), q.value());
        kern.add_mod(dst.data(), a.data(), dst.size(), q.value());
        return;
    }
    kern.sub_mod(dst.data(), inPlaceOperand(dst, a, b), dst.size(),
                 q.value());
}

} // namespace heat::hw
