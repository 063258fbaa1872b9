/**
 * @file
 * The static price of a compiled circuit.
 *
 * attributeCompiledCircuit() walks a CompiledCircuit's instruction
 * stream and charges every instruction's modeled compute cycles to its
 * functional unit (hw::unitOf), its opcode, and — via
 * CompiledCircuit::instr_nodes — the circuit node that emitted it. It
 * prices each instruction with hw::CostModel, the same function the
 * coprocessor charges from; only the record levels come from elsewhere
 * (the slot-action log rather than a memory file). It adds the host
 * transfers with hw::ArmHostModel, the model runCompiledCircuit charges
 * them from, and prices a cold and a warm run: each run's totals equal
 * what runCompiledCircuit / runCompiledCircuitWarm report, without
 * running anything, and its timeline orders the compute runs and DMA
 * holds as the run charges them.
 *
 * This is the one place a compiled program is priced: the compiler
 * annotates nodes with it, the serving layer's modeled-time engine
 * places and traces its timelines, the paper-table benches read its
 * kPerInstruction price, and `heat_cli trace` cross-checks it against a
 * reference run (the exact-equality acceptance gate).
 */

#ifndef HEAT_COMPILER_ATTRIBUTION_H
#define HEAT_COMPILER_ATTRIBUTION_H

#include <map>
#include <vector>

#include "compiler/compiler.h"

namespace heat::compiler {

/** One step of a run's modeled timeline. */
struct RunPhase
{
    /** Resident upload (cold runs only), upload, FPGA compute, one
     *  kKeyLoad burst, download. */
    enum class Kind : uint8_t
    {
        kResidentUpload,
        kUpload,
        kCompute,
        kKeyLoad,
        kDownload
    };

    Kind kind = Kind::kCompute;
    double us = 0.0;
    /** The segment the phase belongs to (0 for the resident upload). */
    size_t segment = 0;
    /** kCompute: its instructions [begin, end); kKeyLoad: the key load
     *  at begin. */
    size_t begin = 0;
    size_t end = 0;
    /** kCompute: its cycles, Arm dispatch included; us ==
     *  cyclesToUs(cycles). */
    hw::Cycle cycles = 0;

    /** Held on the shared DMA engine, else FPGA compute. */
    bool dma() const { return kind != Kind::kCompute; }
};

/** Static price of one run of a compiled circuit. */
struct RunPrice
{
    /** The run's totals, field by field what the run reports. */
    CircuitRunStats totals;
    /** Compute runs and DMA holds in the order the run charges them:
     *  the resident upload (cold runs only), then per segment its
     *  upload, its compute runs split at each key-load burst (the
     *  segment's fused Arm dispatch closes its last run), and its
     *  download. Zero-cycle compute runs are left out. The durations
     *  sum to totals.modeledUs() up to rounding. */
    std::vector<RunPhase> timeline;
};

/** Static price and cycle breakdown of one compiled circuit. */
struct CircuitAttribution
{
    /** A run on a fresh coprocessor: runCompiledCircuit. */
    RunPrice cold;
    /** A rerun over the pinned resident prefix: runCompiledCircuitWarm.
     *  Equals cold for a circuit without resident inputs, every run of
     *  which is cold. */
    RunPrice warm;
    /** Per segment, each instruction's price (Arm dispatch excluded). */
    std::vector<std::vector<hw::InstrCost>> instr_costs;
    /** Compute cycles per opcode. */
    std::map<hw::Opcode, hw::Cycle> op_cycles;
    /** Compute cycles attributed to each circuit value id (nodes that
     *  emitted no instructions — inputs, fused relins — stay 0; spill
     *  traffic charges the node whose emission forced it). */
    std::vector<hw::Cycle> node_cycles;
    /** Sum of per-instruction compute cycles. */
    hw::Cycle compute_cycles = 0;
    /** Arm dispatch overhead: one per non-empty segment
     *  (kFusedProgram) or one per instruction (kPerInstruction).
     *  compute_cycles + dispatch_cycles == cold.totals.fpga_cycles. */
    hw::Cycle dispatch_cycles = 0;
};

/**
 * Price @p compiled: a pure function of the compiled artifact — no
 * coprocessor, no execution. kFusedProgram prices the runs
 * runCompiledCircuit makes; kPerInstruction prices the same runs with
 * the Arm dispatching every instruction and each segment's transfers
 * charged as one host round trip, as the paper measured Table I — for
 * a compileCircuitOpByOp artifact, the run runCircuitOpByOp makes.
 */
CircuitAttribution attributeCompiledCircuit(
    const CompiledCircuit &compiled,
    hw::DispatchMode mode = hw::DispatchMode::kFusedProgram);

} // namespace heat::compiler

#endif // HEAT_COMPILER_ATTRIBUTION_H
