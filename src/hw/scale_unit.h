/**
 * @file
 * The HPS Scale Q->q unit (Sec. V-C, Fig. 9).
 *
 * Block-level pipelined datapath computing round(t*x/q) in the p base
 * (Blocks 1-4: fractional MAC, seven modular MAC lanes, own-residue
 * contribution, final add) chained into the Lift datapath for the p->q
 * base switch (Block 5). Because the two stages are block-pipelined, one
 * Scale costs about the same as one Lift (Table II: 82.7 vs 82.6 us).
 *
 * During result writeback the unit can broadcast each output residue to
 * all q channels — materializing the WordDecomp digit polynomials for
 * relinearization at zero extra cost ("cheap bit-level manipulation").
 *
 * The HPS functional path is one ScaleRounder::scaleBatch over residue
 * rows, chained into the scale-back converter: the dispatched hps_scale
 * kernel streams each vector of coefficients through Blocks 1-5 in
 * registers and writes dst's q rows and the digit broadcasts from
 * them. A mod-switch is one scaleBatch without the chain. The
 * traditional architecture keeps the per-coefficient BigInt oracle.
 */

#ifndef HEAT_HW_SCALE_UNIT_H
#define HEAT_HW_SCALE_UNIT_H

#include <memory>
#include <vector>

#include "fv/params.h"
#include "hw/config.h"
#include "hw/memory_file.h"

namespace heat::hw {

/** Scale Q->q: functional execution + timing. */
class ScaleUnit
{
  public:
    ScaleUnit(std::shared_ptr<const fv::FvParams> params,
              const HwConfig &config);

    /**
     * Scale the full-base record @p src into the q-base record @p dst.
     * The source record's modulus-switching level selects the live
     * basis (dst must carry the same level).
     *
     * @param digits optional pre-allocated q-base records (one per live
     *        q prime) receiving the WordDecomp digit broadcasts.
     */
    void run(MemoryFile &memory, PolyId src, PolyId dst,
             const std::vector<PolyId> &digits) const;

    /**
     * Modulus switch: dst = round(src / q_last) where q_last is the
     * last live prime of the source level. @p src is a q-base record at
     * level l in natural order; @p dst must be a q-base record at level
     * l + 1. Reuses the divide-and-round datapath with t = 1 — the
     * hardware twin of fv::Evaluator::modSwitchPoly (bit-exact).
     */
    void runModSwitch(MemoryFile &memory, PolyId src, PolyId dst) const;

    /** Cycle cost of one scale instruction at level @p level (Block 1's
     *  serial input chain shortens with the live residues). */
    Cycle cycles(size_t level = 0) const;

    /** Cycle cost of one mod-switch instruction at source level
     *  @p level — scale-like, but streaming only the live q lanes. */
    Cycle modSwitchCycles(size_t level) const;

  private:
    std::shared_ptr<const fv::FvParams> params_;
    HwConfig config_;
};

} // namespace heat::hw

#endif // HEAT_HW_SCALE_UNIT_H
