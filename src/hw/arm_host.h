/**
 * @file
 * Model of the Arm-side software (Fig. 11): two application cores each
 * driving one coprocessor, one networking core, baremetal software with
 * contiguous-buffer DMA staging.
 *
 * The host model supplies the software-side timings of Table I: the
 * ciphertext send/receive costs (DMA single transfers plus staging) and
 * the software fallback for Add, whose per-coefficient cost on the
 * cache-missing baremetal loop the paper measured at ~80x the hardware
 * path.
 */

#ifndef HEAT_HW_ARM_HOST_H
#define HEAT_HW_ARM_HOST_H

#include <cstddef>
#include <memory>

#include "fv/params.h"
#include "hw/config.h"
#include "hw/dma.h"

namespace heat::hw {

/** Arm processing-system model. */
class ArmHostModel
{
  public:
    ArmHostModel(std::shared_ptr<const fv::FvParams> params,
                 const HwConfig &config);

    /** Bytes of one q polynomial. */
    size_t polyBytes() const;

    /** Time to send @p count q polynomials to the coprocessor (us) —
     *  one single-descriptor DMA burst plus staging each. */
    double sendPolysUs(size_t count) const;

    /** Time to receive @p count q polynomials back (us). */
    double receivePolysUs(size_t count) const;

    /** Time to send @p count ciphertexts to the coprocessor (us). */
    double sendCiphertextsUs(size_t count) const;

    /** Time to receive one result ciphertext (us). */
    double receiveCiphertextUs() const;

    /** Software FV.Add on one Arm core (us) — the Table I baseline. */
    double softwareAddUs() const;

  private:
    std::shared_ptr<const fv::FvParams> params_;
    HwConfig config_;
    DmaModel dma_;
};

} // namespace heat::hw

#endif // HEAT_HW_ARM_HOST_H
