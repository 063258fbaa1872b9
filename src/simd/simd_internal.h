/**
 * @file
 * Internal seams of the SIMD dispatch layer: the scalar kernel bodies
 * (shared by the scalar table and as in-kernel fallbacks / loop tails
 * of the vector translation units) and the constructors of the
 * per-ISA tables. Not installed; include simd/simd.h instead.
 */

#ifndef HEAT_SIMD_SIMD_INTERNAL_H
#define HEAT_SIMD_SIMD_INTERNAL_H

#include "simd/simd.h"

namespace heat::simd::detail {

// Scalar kernel bodies (the oracle semantics). The vector tables call
// these for ineligible moduli and for sub-lane-width loop tails, so a
// vector kernel's output is the scalar output by construction wherever
// it does not vectorize.
void addModOutScalar(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                     size_t n, uint64_t q);
void subModOutScalar(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                     size_t n, uint64_t q);
void negateModScalar(uint64_t *a, size_t n, uint64_t q);
void mulShoupOutScalar(uint64_t *dst, const uint64_t *src, size_t n,
                       const rns::Modulus &q, uint64_t w, uint64_t w_shoup);
void mulModOutScalar(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                     size_t n, const rns::Modulus &q);
void macModScalar(uint64_t *acc, const uint64_t *a, const uint64_t *b,
                  size_t n, const rns::Modulus &q);
void reduceU32Scalar(uint64_t *dst, const uint64_t *src, size_t n,
                     const rns::Modulus &q);

/** The scalar HPS kernels on coefficients [begin, end): every table's
 *  loop tail. */
void hpsConvertScalar(const HpsConvertPlan &plan,
                      const uint64_t *const *in_rows,
                      uint64_t *const *out_rows, size_t begin, size_t end);
void hpsScaleScalar(const HpsScalePlan &plan, const HpsConvertPlan *back,
                    const uint64_t *const *in_rows,
                    uint64_t *const *out_rows,
                    uint64_t *const *broadcast_rows, size_t begin,
                    size_t end);

// Table constructors, one per compiled-in ISA tier.
const Kernels &scalarKernels();
#if defined(HEAT_HAVE_AVX2)
const Kernels &avx2Kernels();
#endif
#if defined(HEAT_HAVE_AVX512)
const Kernels &avx512Kernels();
#endif

} // namespace heat::simd::detail

#endif // HEAT_SIMD_SIMD_INTERNAL_H
