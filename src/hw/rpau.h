/**
 * @file
 * Residue Polynomial Arithmetic Unit mapping (Sec. V-A).
 *
 * Each RPAU owns the BRAM slots, the dual-core NTT engine and the
 * coefficient-wise unit for (up to) two RNS primes: RPAU r serves prime
 * r of the q base and prime r + 6 of the extension base (the paper's
 * resource sharing: ceil(13/2) = 7 RPAUs, the last one serving only
 * q12). A batch-0 instruction activates RPAUs 0..5, a batch-1
 * instruction RPAUs 0..6; all active RPAUs run in lock-step, so
 * instruction latency is independent of batch width — which is why one
 * NttEngine and one CoeffUnit (hw::CostModel) price every RPAU.
 */

#ifndef HEAT_HW_RPAU_H
#define HEAT_HW_RPAU_H

#include <algorithm>
#include <cstddef>
#include <ranges>

#include "common/panic.h"

namespace heat::hw {

/** Map a global residue index to its RPAU (paper Sec. V-A1). */
size_t rpauForResidue(size_t residue, size_t q_prime_count);

/** Batch of a residue: 0 for the q primes, 1 for the extension primes. */
int batchOfResidue(size_t residue, size_t q_prime_count);

/** A contiguous run of residue indices [begin, end). */
using ResidueRange = std::ranges::iota_view<size_t, size_t>;

/**
 * Residue indices belonging to a batch for a record of @p total live
 * residues: batch 0 the q primes, batch 1 the extension primes. Panics
 * unless @p batch is 0 or 1.
 */
inline ResidueRange
residuesOfBatch(int batch, size_t q_prime_count, size_t total)
{
    panicIf(batch != 0 && batch != 1, "batch must be 0 or 1");
    const size_t q_end = std::min(q_prime_count, total);
    return batch == 0 ? ResidueRange(0, q_end) : ResidueRange(q_end, total);
}

} // namespace heat::hw

#endif // HEAT_HW_RPAU_H
