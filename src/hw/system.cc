#include "hw/system.h"

#include "compiler/compiler.h"
#include "hw/coprocessor.h"

namespace heat::hw {

MultJobProfile
profileMultJob(const std::shared_ptr<const fv::FvParams> &params,
               const HwConfig &config, DispatchMode dispatch)
{
    const bool fused = dispatch == DispatchMode::kFusedProgram;
    MultJobProfile profile;
    // Cost queries only: no record exists, so every instruction is
    // priced at level 0 — the level a served Mult runs at.
    const Coprocessor scratch(params, config);
    const Program program =
        compiler::compileOpCircuit(params, compiler::NodeKind::kMult, config)
            .segments.at(0)
            .program;

    Cycle compute_cycles = 0;
    for (const Instruction &instr : program.instrs) {
        compute_cycles += fused
                              ? scratch.instructionComputeCycles(instr)
                              : scratch.instructionCycles(instr);
        if (instr.op == Opcode::kKeyLoad) {
            ++profile.key_segments;
            profile.key_dma_us = scratch.instructionDmaUs(instr);
        }
    }
    if (fused && !program.instrs.empty())
        compute_cycles += static_cast<Cycle>(config.dispatch_overhead);
    profile.compute_us = config.cyclesToUs(compute_cycles);

    ArmHostModel host(params, config);
    profile.send_us = host.sendCiphertextsUs(2);
    profile.receive_us = host.receiveCiphertextUs();
    return profile;
}

} // namespace heat::hw
