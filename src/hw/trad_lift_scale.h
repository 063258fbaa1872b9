/**
 * @file
 * Structural cycle model of the traditional (multi-precision CRT)
 * Lift q->Q and Scale Q->q architectures (Sec. V-B1, Fig. 5 and Fig. 8).
 *
 * These datapaths follow the design of Roy et al. [20]: CRT
 * reconstruction with long-integer sum-of-products, division by q as a
 * multiplication with a stored reciprocal, and per-prime reductions —
 * all on a 30-bit word-serial datapath. In the block-level pipeline the
 * slowest block sets the beat per coefficient:
 *
 *   Lift:  max(B1 sum-of-products, B2 division, B3 residue reductions)
 *   Scale: the division operates on a ~2x wider dividend with a ~2x
 *          wider reciprocal, i.e. ~4x the cycles (Sec. V-C), and
 *          dominates.
 *
 * The functional content of the traditional units is exact CRT
 * arithmetic — in the simulator that is FastBaseConverter::convertExact
 * and ScaleRounder::scaleExact (LiftUnit/ScaleUnit select them when the
 * coprocessor is configured with LiftScaleArch::kTraditional); this
 * class supplies the Sec. VI-C timing analysis.
 */

#ifndef HEAT_HW_TRAD_LIFT_SCALE_H
#define HEAT_HW_TRAD_LIFT_SCALE_H

#include <cstddef>
#include <memory>

#include "fv/params.h"
#include "hw/config.h"

namespace heat::hw {

/** Cycle model of the multi-precision Lift/Scale pipelines. */
class TradLiftScaleModel
{
  public:
    /**
     * @param params parameter set (fixes word counts).
     * @param config hardware configuration (clock, core count).
     */
    TradLiftScaleModel(std::shared_ptr<const fv::FvParams> params,
                       const HwConfig &config);

    /** Block 1 of Fig. 5: k MACs accumulating 30x(q-width) products. */
    size_t liftSopCycles() const;

    /** Block 2/3 of Fig. 5: division via reciprocal multiplication. */
    size_t liftDivisionCycles() const;

    /** Blocks 4/5 of Fig. 5: extension residues of the reconstruction. */
    size_t liftResidueCycles() const;

    /** Pipeline beat of the traditional Lift (slowest block). */
    size_t liftBeat() const;

    /** Division cycles during Scale: double-width dividend times a
     *  double-precision reciprocal (~4x the Lift division). */
    size_t scaleDivisionCycles() const;

    /** Pipeline beat of the traditional Scale. */
    size_t scaleBeat() const;

    /** Single-core Lift time for a whole polynomial (microseconds). */
    double singleCoreLiftUs() const;

    /** Single-core Scale time for a whole polynomial (microseconds). */
    double singleCoreScaleUs() const;

  private:
    std::shared_ptr<const fv::FvParams> params_;
    HwConfig config_;
    /** Words of a q-sized long integer (ceil(log q / 30) + 1 guard)
     *  and of a Q-sized one. */
    size_t q_words_;
    size_t full_words_;
};

} // namespace heat::hw

#endif // HEAT_HW_TRAD_LIFT_SCALE_H
