#include "compiler/attribution.h"

#include "hw/arm_host.h"
#include "hw/coprocessor.h"

namespace heat::compiler {

CircuitAttribution
attributeCompiledCircuit(const CompiledCircuit &compiled,
                         hw::DispatchMode mode)
{
    const bool fused = mode == hw::DispatchMode::kFusedProgram;
    const hw::CostModel model(compiled.params, compiled.hw);
    const auto dispatch =
        static_cast<hw::Cycle>(compiled.hw.dispatch_overhead);
    const auto arm = static_cast<size_t>(hw::Unit::kArmUnit);
    const std::vector<hw::RecordShape> records =
        hw::shapeSlotLog(*compiled.params, compiled.slot_actions).records;
    // The level the coprocessor's memory file reports for the
    // instruction's level operand (0 for kNoPoly or an unknown id).
    const auto levelOf = [&](const hw::Instruction &instr) -> size_t {
        const hw::PolyId id =
            hw::operandOf(instr, hw::opInfo(instr.op).level_operand);
        return id < records.size() ? records[id].level : 0;
    };

    CircuitAttribution out;
    out.node_cycles.assign(compiled.value_sizes.size(), 0);

    // The device side of a run, shared by the cold and warm prices: its
    // totals and, per segment, the compute runs and key-load bursts.
    CircuitRunStats device;
    device.segments = compiled.segments.size();
    std::vector<std::vector<RunPhase>> segment_phases;
    for (size_t s = 0; s < compiled.segments.size(); ++s) {
        const hw::Program &program = compiled.segments[s].program;
        const std::vector<ValueId> *tags =
            s < compiled.instr_nodes.size() ? &compiled.instr_nodes[s]
                                            : nullptr;
        std::vector<RunPhase> &phases = segment_phases.emplace_back();
        std::vector<hw::InstrCost> &costs = out.instr_costs.emplace_back();
        hw::Cycle run_cycles = 0;
        size_t run_begin = 0;
        // A key load is DMA time only (CostModel prices it no compute
        // cycles): a run closed at one ends before it, the next starts
        // after it.
        const auto closeRun = [&](size_t end) {
            if (run_cycles > 0)
                phases.push_back({RunPhase::Kind::kCompute,
                                  compiled.hw.cyclesToUs(run_cycles), s,
                                  run_begin, end, run_cycles});
            run_cycles = 0;
            run_begin = end + 1;
        };
        // Summed per segment, as a run adds each program's ExecStats,
        // so the double total matches the run's dma_us bit for bit.
        double segment_dma_us = 0.0;
        for (size_t k = 0; k < program.instrs.size(); ++k) {
            const hw::Instruction &instr = program.instrs[k];
            const hw::InstrCost cost = model.cost(instr.op, levelOf(instr));
            costs.push_back(cost);
            out.compute_cycles += cost.cycles;
            device.unit_cycles[static_cast<size_t>(hw::unitOf(instr.op))] +=
                cost.cycles;
            out.op_cycles[instr.op] += cost.cycles;
            if (tags != nullptr && k < tags->size() &&
                (*tags)[k] != kNoValue)
                out.node_cycles[(*tags)[k]] += cost.cycles;
            run_cycles += cost.cycles;
            if (!fused) {
                out.dispatch_cycles += dispatch;
                device.unit_cycles[arm] += dispatch;
                run_cycles += dispatch;
                ++device.dispatches;
            }
            segment_dma_us += cost.dma_us;
            if (cost.dma_us > 0.0) {
                closeRun(k);
                phases.push_back({RunPhase::Kind::kKeyLoad, cost.dma_us, s, k});
            }
        }
        device.instructions += program.instrs.size();
        device.dma_us += segment_dma_us;
        if (fused && !program.instrs.empty()) {
            out.dispatch_cycles += dispatch;
            device.unit_cycles[arm] += dispatch;
            run_cycles += dispatch;
            ++device.dispatches;
        }
        closeRun(program.instrs.size());
    }
    device.fpga_cycles = out.compute_cycles + out.dispatch_cycles;

    // The host side, added in the order runCompiledImpl charges it.
    const hw::ArmHostModel host(compiled.params, compiled.hw);
    const size_t resident = compiled.resident_inputs.size();
    const auto price = [&](bool warm) {
        RunPrice p{device, {}};
        if (!warm && resident > 0) {
            p.totals.uploaded_polys += 2 * resident;
            const double us = host.sendPolysUs(2 * resident);
            p.totals.host_us += us;
            p.timeline.push_back({RunPhase::Kind::kResidentUpload, us});
        }
        for (size_t s = 0; s < compiled.segments.size(); ++s) {
            const Segment &seg = compiled.segments[s];
            p.totals.uploaded_polys += seg.uploads.size();
            double upload_us = 0.0;
            if (!seg.uploads.empty()) {
                upload_us = host.sendPolysUs(seg.uploads.size());
                p.timeline.push_back({RunPhase::Kind::kUpload, upload_us, s});
            }
            p.timeline.insert(p.timeline.end(), segment_phases[s].begin(),
                              segment_phases[s].end());
            p.totals.downloaded_polys += seg.downloads.size();
            double download_us = 0.0;
            if (!seg.downloads.empty()) {
                download_us = host.receivePolysUs(seg.downloads.size());
                p.timeline.push_back(
                    {RunPhase::Kind::kDownload, download_us, s});
            }
            // Summed as the run sums them (per instruction, one
            // round trip per segment), so the totals match to the bit.
            if (fused) {
                p.totals.host_us += upload_us;
                p.totals.host_us += download_us;
            } else {
                p.totals.host_us += upload_us + download_us;
            }
        }
        return p;
    };
    out.cold = price(false);
    out.warm = resident == 0 ? out.cold : price(true);
    return out;
}

} // namespace heat::compiler
