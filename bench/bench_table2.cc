/**
 * @file
 * Reproduces Table II: performance of the individual instructions of
 * the coprocessor ISA and how many times FV.Mult calls each.
 */

#include <cstdio>
#include <map>

#include "bench_util.h"
#include "compiler/compiler.h"
#include "fv/params.h"
#include "hw/coprocessor.h"

using namespace heat;
using namespace heat::hw;

int
main(int argc, char **argv)
{
    bench::JsonReporter json("table2", argc, argv);
    auto params = fv::FvParams::paper();
    HwConfig config = HwConfig::paper();
    Coprocessor cp(params, config);

    const Program mult =
        compiler::compileOpCircuit(params, compiler::NodeKind::kMult, config)
            .segments.at(0)
            .program;

    std::map<Opcode, int> calls;
    for (const auto &i : mult.instrs)
        ++calls[i.op];

    struct PaperRow
    {
        Opcode op;
        int paper_calls;
        double paper_us;
    };
    const PaperRow rows[] = {
        {Opcode::kNtt, 14, 73.0},
        {Opcode::kIntt, 8, 85.0},
        {Opcode::kCoeffMul, 20, 13.1},
        {Opcode::kCoeffAdd, 26, 13.6},
        {Opcode::kRearrange, 22, 20.8},
        {Opcode::kLift, 4, 82.6},
        {Opcode::kScale, 3, 82.7},
    };

    bench::printHeader("Table II: per-instruction time (us per call)");
    for (const auto &row : rows) {
        Instruction instr;
        instr.op = row.op;
        const double us =
            config.cyclesToUs(cp.instructionCycles(instr));
        bench::printRow(opcodeName(row.op), row.paper_us, us, "us");
        json.record(std::string("instr_") + opcodeName(row.op), us * 1e3,
                    "ns", params->degree(), params->qBase()->size());
    }

    std::printf("\n%-32s %10s %10s\n", "instruction", "#calls/Mult",
                "paper");
    for (const auto &row : rows) {
        std::printf("%-32s %10d %10d%s\n", opcodeName(row.op),
                    calls[row.op], row.paper_calls,
                    calls[row.op] == row.paper_calls ? "" : "  (*)");
    }
    std::printf("  (*) CoeffAdd: our schedule needs 14 additions for the "
                "tensor + SoP + final\n      accumulation; the paper "
                "reports 26 (see EXPERIMENTS.md).\n");

    // Arm cycle counts like the paper's table.
    bench::printHeader("Table II in Arm cycles (1.2 GHz)");
    const double paper_cycles[] = {87582, 102043, 15662, 16292, 25006,
                                   99137, 99274};
    int idx = 0;
    for (const auto &row : rows) {
        Instruction instr;
        instr.op = row.op;
        const double us = config.cyclesToUs(cp.instructionCycles(instr));
        bench::printRow(opcodeName(row.op), paper_cycles[idx++],
                        static_cast<double>(config.usToArmCycles(us)),
                        "cy");
    }
    return 0;
}
