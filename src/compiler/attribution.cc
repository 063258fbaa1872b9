#include "compiler/attribution.h"

#include <unordered_map>

#include "hw/coprocessor.h"

namespace heat::compiler {
namespace {

/**
 * Record levels from the slot-action log. Ids are handed out
 * sequentially and never reused within one compiled circuit, so a
 * record's level is fixed by its kAllocate action — the same level
 * MemoryFile::recordLevel() reports after replaySlotActions().
 */
std::unordered_map<hw::PolyId, size_t>
recordLevels(const CompiledCircuit &compiled)
{
    std::unordered_map<hw::PolyId, size_t> levels;
    levels.reserve(compiled.slot_actions.size());
    for (const hw::SlotAction &action : compiled.slot_actions) {
        if (action.kind == hw::SlotAction::Kind::kAllocate)
            levels.emplace(action.id, action.level);
    }
    return levels;
}

} // namespace

CircuitAttribution
attributeCompiledCircuit(const CompiledCircuit &compiled)
{
    const hw::CostModel model(compiled.params, compiled.hw);
    const auto levels = recordLevels(compiled);
    // The level the coprocessor's memory file would report for the
    // instruction's level operand (0 for kNoPoly or an unknown id).
    const auto levelOf = [&](const hw::Instruction &instr) -> size_t {
        const auto it = levels.find(
            hw::operandOf(instr, hw::opInfo(instr.op).level_operand));
        return it == levels.end() ? 0 : it->second;
    };

    CircuitAttribution out;
    out.node_cycles.assign(compiled.value_sizes.size(), 0);

    for (size_t s = 0; s < compiled.segments.size(); ++s) {
        const hw::Program &program = compiled.segments[s].program;
        const std::vector<ValueId> *tags =
            s < compiled.instr_nodes.size() ? &compiled.instr_nodes[s]
                                            : nullptr;
        // Summed per segment, as a run adds each program's ExecStats,
        // so the double total matches the run's dma_us bit for bit.
        double segment_dma_us = 0.0;
        SegmentTimeline &timeline = out.segments.emplace_back();
        for (size_t k = 0; k < program.instrs.size(); ++k) {
            const hw::Instruction &instr = program.instrs[k];
            const hw::InstrCost cost = model.cost(instr.op, levelOf(instr));
            out.compute_cycles += cost.cycles;
            out.unit_cycles[static_cast<size_t>(hw::unitOf(instr.op))] +=
                cost.cycles;
            out.op_cycles[instr.op] += cost.cycles;
            if (tags != nullptr && k < tags->size() &&
                (*tags)[k] != kNoValue)
                out.node_cycles[(*tags)[k]] += cost.cycles;
            segment_dma_us += cost.dma_us;
            timeline.compute_runs.back() += cost.cycles;
            if (cost.dma_us > 0.0) {
                timeline.dma_us.push_back(cost.dma_us);
                timeline.compute_runs.push_back(0);
            }
        }
        out.key_dma_us += segment_dma_us;
        if (!program.instrs.empty()) {
            const auto dispatch =
                static_cast<hw::Cycle>(compiled.hw.dispatch_overhead);
            out.dispatch_cycles += dispatch;
            timeline.compute_runs.back() += dispatch;
            out.unit_cycles[static_cast<size_t>(hw::Unit::kArmUnit)] +=
                dispatch;
        }
    }
    out.total_cycles = out.compute_cycles + out.dispatch_cycles;
    return out;
}

} // namespace heat::compiler
