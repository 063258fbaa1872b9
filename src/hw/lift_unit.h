/**
 * @file
 * The HPS Lift q->Q unit (Sec. V-B2, Fig. 6).
 *
 * Block-level pipelined datapath:
 *   Block 1: a'_i = a_i * q~_i mod q_i            (sequential, 6 cycles)
 *   Block 2: seven parallel MACs sum a'_i * (q*_i mod q_j)
 *   Block 3: v' accumulation via 30x60-bit reciprocal multiplications
 *   Block 4: v'_j = v' * q mod q_j
 *   Block 5: a_j = a'_j - v'_j mod q_j            (sequential, 7 cycles)
 *
 * The slowest block sets the pipeline beat: 7 cycles per coefficient
 * plus one streaming handoff (lift_beat = 8). Two cores split the
 * coefficients. Functionally the unit *is* rns::FastBaseConverter — the
 * software evaluator and the hardware model share the arithmetic, so
 * golden comparisons are bit-exact. The HPS functional path is one
 * FastBaseConverter::convertBatch over the record's residue rows (q rows
 * in, p rows out): the dispatched hps_convert kernel, which streams
 * each vector of coefficients through Blocks 1-5 in registers. The
 * traditional architecture keeps the per-coefficient BigInt CRT
 * conversion.
 */

#ifndef HEAT_HW_LIFT_UNIT_H
#define HEAT_HW_LIFT_UNIT_H

#include <memory>

#include "fv/params.h"
#include "hw/config.h"
#include "hw/memory_file.h"

namespace heat::hw {

/** Lift q->Q: functional execution over a memory-file record + timing. */
class LiftUnit
{
  public:
    LiftUnit(std::shared_ptr<const fv::FvParams> params,
             const HwConfig &config);

    /**
     * Execute the lift on record @p id in @p memory: a full-base record
     * whose q residues are in natural layout; writes its p residues.
     * The record's modulus-switching level selects the live input
     * lanes.
     */
    void run(MemoryFile &memory, PolyId id) const;

    /** Cycle cost of one lift instruction (all cores, whole poly) at
     *  modulus-switching level @p level: the sequential input chain
     *  shortens with the live residues. */
    Cycle cycles(size_t level = 0) const;

  private:
    std::shared_ptr<const fv::FvParams> params_;
    HwConfig config_;
};

} // namespace heat::hw

#endif // HEAT_HW_LIFT_UNIT_H
