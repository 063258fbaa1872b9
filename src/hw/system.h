/**
 * @file
 * Per-Mult price of the Fig. 11 system's coprocessor: the compute, key
 * DMA and host transfers of one FV.Mult, priced per instruction the way
 * the paper's Arm issues it (Table I) or as one fused program.
 *
 * The system itself — two coprocessors, one Arm core each, and a single
 * DMA engine behind the mutual-exclusion IP core — is modeled by
 * service::ExecutionService, whose modeled-time engine arbitrates the
 * shared DMA engine among its workers. The headline reproduction, ~400
 * Mult/s with two coprocessors at 200 MHz (Sec. VI-A), is a
 * start_paused service run.
 */

#ifndef HEAT_HW_SYSTEM_H
#define HEAT_HW_SYSTEM_H

#include <memory>

#include "fv/params.h"
#include "hw/arm_host.h"
#include "hw/config.h"
#include "hw/isa.h"

namespace heat::hw {

/** Timing profile of one Mult job on a coprocessor. */
struct MultJobProfile
{
    double send_us = 0.0;        ///< operand upload (DMA-held)
    double compute_us = 0.0;     ///< FPGA compute (no DMA)
    double key_dma_us = 0.0;     ///< per key segment (DMA-held)
    size_t key_segments = 0;     ///< number of key loads
    double receive_us = 0.0;     ///< result download (DMA-held)
};

/**
 * Price one FV.Mult job: sum the per-instruction block-model costs of
 * the compiled one-node mult(x, y) program
 * (compiler::compileOpCircuit) — exactly what
 * ExecutionService::submit(Op::kMult) runs — plus the host-side
 * transfer times. Pure function of its inputs.
 *
 * @param dispatch kPerInstruction reproduces the paper's measured cost
 *        (every instruction pays the Arm dispatch overhead);
 *        kFusedProgram prices the Mult as a pre-queued fused program
 *        with a single dispatch (the circuit-compiler execution model).
 */
MultJobProfile profileMultJob(
    const std::shared_ptr<const fv::FvParams> &params,
    const HwConfig &config,
    DispatchMode dispatch = DispatchMode::kPerInstruction);

} // namespace heat::hw

#endif // HEAT_HW_SYSTEM_H
