/**
 * @file
 * Cycle-level model of the dual-butterfly-core NTT engine (Sec. V-A3/4).
 *
 * The engine implements the memory-efficient paired-coefficient scheme of
 * Roy et al. [30] extended to two cores: every 60-bit word holds the two
 * coefficients one butterfly consumes, so each core reads one word and
 * writes one word per cycle. The access schedule (paper Fig. 3) has three
 * regimes for an n-coefficient polynomial stored in n/2 words across a
 * lower and an upper bank:
 *
 *  - m <= n/4   : core 0 walks the lower bank, core 1 the upper bank;
 *  - m == n/2   : both cores interleave banks, core 1 in inverted order
 *                 so the cores always touch opposite banks;
 *  - m == n     : "one word at a time": core 0 lower, core 1 upper.
 *
 * The model replays the schedule cycle by cycle against BramBank port
 * accounting (zero conflicts expected — this is Fig. 3's claim) and
 * derives the per-instruction cycle cost used by the coprocessor. The
 * arithmetic itself is delegated to the verified software NTT: the
 * hardware and software paths share twiddle tables, so results are
 * bit-identical by construction.
 */

#ifndef HEAT_HW_NTT_ENGINE_H
#define HEAT_HW_NTT_ENGINE_H

#include <cstdint>
#include <vector>

#include "hw/bram.h"
#include "hw/config.h"

namespace heat::hw {

/** One read or write event of the NTT access schedule. */
struct MemAccess
{
    Cycle cycle;   ///< issue cycle within the stage
    int core;      ///< butterfly core 0 or 1
    uint32_t word; ///< word address in [0, n/2)
};

/** Dual-core NTT engine: schedule generation and timing. */
class NttEngine
{
  public:
    /**
     * @param config hardware configuration.
     * @param degree polynomial degree n (power of two, >= 8).
     */
    NttEngine(const HwConfig &config, size_t degree);

    /** @return number of butterfly stages (log2 n). */
    int stageCount() const { return log_n_; }

    /**
     * Generate the read schedule of stage @p stage (0-based; stage s
     * corresponds to Alg. 1's m = 2^(s+1)). Writes follow the same
     * pattern shifted by the pipeline depth.
     */
    std::vector<MemAccess> stageReadSchedule(int stage) const;

    /**
     * Replay the full transform against bank port accounting.
     *
     * @param conflicts receives the number of port conflicts (0 expected).
     * @return cycle count of the transform (excluding dispatch).
     */
    Cycle simulate(uint64_t &conflicts) const;

    /** Analytic cycle count of a forward NTT (no dispatch overhead). */
    Cycle forwardCycles() const;

    /** Analytic cycle count of an inverse NTT (adds the n^{-1} scaling
     *  pass, the reason Table II's Inverse-NTT is slower). */
    Cycle inverseCycles() const;

    /** Cycles of a memory-rearrange instruction (layout permutation:
     *  read plus scattered write over all n/2 words). */
    Cycle rearrangeCycles() const;

    /** Cycles of a Galois-automorphism instruction (index-mapped BRAM
     *  copy: sequential read, scattered write, sign fix-up inline). */
    Cycle automorphCycles() const;

  private:
    HwConfig config_;
    size_t n_;
    int log_n_;
    size_t words_; // n / 2
};

} // namespace heat::hw

#endif // HEAT_HW_NTT_ENGINE_H
