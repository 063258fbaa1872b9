/**
 * @file
 * Compile-time cycle attribution of a compiled circuit.
 *
 * attributeCompiledCircuit() walks a CompiledCircuit's instruction
 * stream and charges every instruction's modeled compute cycles to its
 * functional unit (hw::unitOf), its opcode, and — via
 * CompiledCircuit::instr_nodes — the circuit node that emitted it. It
 * prices each instruction with hw::CostModel, the same function the
 * coprocessor charges from; only the record levels come from elsewhere
 * (the slot-action log rather than a memory file). The per-unit totals
 * and key DMA therefore equal what a fused execution of the circuit
 * reports, without running anything.
 *
 * This is what lets the compiler annotate nodes with attributed cost
 * at compile time, and what `heat_cli trace` cross-checks against the
 * coprocessor's runtime unit_cycles (the 0-cycle-delta acceptance
 * gate).
 */

#ifndef HEAT_COMPILER_ATTRIBUTION_H
#define HEAT_COMPILER_ATTRIBUTION_H

#include <array>
#include <map>
#include <vector>

#include "compiler/compiler.h"

namespace heat::compiler {

/** One segment's program as the shared DMA engine sees it: compute
 *  runs separated by DMA bursts at their instruction positions. */
struct SegmentTimeline
{
    /** Compute cycles before, between and after the bursts
     *  (compute_runs.size() == dma_us.size() + 1); the segment's Arm
     *  dispatch is charged to the last run. */
    std::vector<hw::Cycle> compute_runs{0};
    /** Each burst's DMA microseconds, in program order. */
    std::vector<double> dma_us;
};

/** Cycle breakdown of one compiled circuit (fused execution model). */
struct CircuitAttribution
{
    /** Per segment: where the key-load DMA bursts fall. */
    std::vector<SegmentTimeline> segments;
    /** Compute + dispatch cycles bucketed by functional unit; sums
     *  exactly to total_cycles. */
    std::array<hw::Cycle, hw::kUnitCount> unit_cycles{};
    /** Compute cycles per opcode. */
    std::map<hw::Opcode, hw::Cycle> op_cycles;
    /** Compute cycles attributed to each circuit value id (nodes that
     *  emitted no instructions — inputs, fused relins — stay 0; spill
     *  traffic charges the node whose emission forced it). */
    std::vector<hw::Cycle> node_cycles;
    /** Sum of per-instruction compute cycles. */
    hw::Cycle compute_cycles = 0;
    /** Arm dispatch overhead: one per non-empty segment (fused). */
    hw::Cycle dispatch_cycles = 0;
    /** compute_cycles + dispatch_cycles == a fused run's fpga_cycles. */
    hw::Cycle total_cycles = 0;
    /** Key-switch key DMA microseconds (kKeyLoad bursts). */
    double key_dma_us = 0.0;

    hw::Cycle
    unitCycles(hw::Unit unit) const
    {
        return unit_cycles[static_cast<size_t>(unit)];
    }
};

/** Attribute @p compiled's modeled cycles. Pure function of the
 *  compiled artifact — no coprocessor, no execution. */
CircuitAttribution
attributeCompiledCircuit(const CompiledCircuit &compiled);

} // namespace heat::compiler

#endif // HEAT_COMPILER_ATTRIBUTION_H
