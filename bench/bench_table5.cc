/**
 * @file
 * Reproduces Table V: estimated resources and Mult latency for larger
 * parameter sets under the Sec. VI-D scaling rule, seeded with this
 * repository's own measured base row (and the paper's base row for
 * comparison).
 */

#include <cstdio>

#include "bench_util.h"
#include "compiler/compiler.h"
#include "fv/params.h"
#include "hw/arm_host.h"
#include "hw/coprocessor.h"
#include "hw/resource_model.h"
#include "hw/scaling_estimator.h"

using namespace heat;
using namespace heat::hw;

namespace {

void
printTable(const char *title, const std::vector<ScalingRow> &rows)
{
    std::printf("\n%s\n", title);
    std::printf("%-14s %8s %8s %8s %8s | %9s %9s %9s\n", "(n, log q)",
                "LUT", "Reg", "BRAM", "DSP", "comp(ms)", "comm(ms)",
                "total(ms)");
    for (const auto &r : rows) {
        char name[32];
        std::snprintf(name, sizeof(name), "(2^%zu, %zu)", r.log2_degree,
                      r.log_q);
        std::printf("%-14s %7.0fK %7.0fK %7.1fK %7.1fK | %9.2f %9.2f "
                    "%9.1f\n",
                    name, r.lut / 1e3, r.ff / 1e3, r.bram36 / 1e3,
                    r.dsp / 1e3, r.compute_ms, r.comm_ms, r.total_ms);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter json("table5", argc, argv);
    // Paper's own base row: 64K/25K/0.4K/0.2K, 4.46 + 0.54 ms.
    ScalingEstimator paper_base(64e3, 25e3, 0.4e3, 0.2e3, 4.46, 0.54);
    printTable("Table V (paper base row):", paper_base.estimate(4));

    // Our measured base row: model the single coprocessor and its Mult.
    auto params = fv::FvParams::paper();
    HwConfig config = HwConfig::paper();
    ResourceModel rm(*params, config);
    Resources one = rm.coprocessor();

    Coprocessor cp(params, config);
    const Program mult =
        compiler::compileOpCircuit(params, compiler::NodeKind::kMult, config)
            .segments.at(0)
            .program;
    double comp_us = 0.0, key_dma_us = 0.0;
    for (const auto &i : mult.instrs) {
        comp_us += config.cyclesToUs(cp.instructionCycles(i));
        key_dma_us += cp.instructionDmaUs(i);
    }
    ArmHostModel host(params, config);
    // Paper accounting: "Comp." includes the relin-key DMA (it is part
    // of Table I's Mult); "Comm." is the operand/result movement.
    const double comm_us =
        host.sendCiphertextsUs(2) + host.receiveCiphertextUs();

    ScalingEstimator ours(one.lut, one.ff, one.bram36, one.dsp,
                          (comp_us + key_dma_us) / 1e3, comm_us / 1e3);
    const std::vector<ScalingRow> our_rows = ours.estimate(4);
    printTable("Table V (this repo's measured base row):", our_rows);

    for (const auto &r : our_rows) {
        char kernel[48];
        std::snprintf(kernel, sizeof(kernel), "scaled_mult_logq%zu",
                      r.log_q);
        json.record(kernel, r.total_ms * 1e6, "ns",
                    size_t(1) << r.log2_degree, 0);
    }

    std::printf("\nPaper row 4 check: (2^15, 1440) -> 45.6 / 34.6 / 80.2 "
                "ms; growth factors: compute x%.2f, comm x%.0f per "
                "doubling.\n",
                ScalingEstimator::kComputeGrowth,
                ScalingEstimator::kCommGrowth);
    return 0;
}
