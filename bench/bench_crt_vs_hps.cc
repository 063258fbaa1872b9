/**
 * @file
 * Reproduces the Sec. VI-C comparison between the two coprocessor
 * architectures: traditional multi-precision CRT Lift/Scale (225 MHz,
 * four cores, 2-element relinearization keys) versus the HPS
 * small-integer datapath (200 MHz, two cores, 6-element keys).
 */

#include <cstdio>

#include "bench_util.h"
#include "compiler/attribution.h"
#include "compiler/compiler.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/trad_lift_scale.h"

using namespace heat;
using namespace heat::hw;

int
main(int argc, char **argv)
{
    bench::JsonReporter json("crt_vs_hps", argc, argv);
    auto params = fv::FvParams::paper();

    // --- single-core Lift/Scale of the traditional architecture -------
    HwConfig trad = HwConfig::paperTraditional();
    TradLiftScaleModel model(params, trad);

    bench::printHeader("Sec. VI-C: traditional CRT architecture");
    bench::printRow("Lift q->Q, single core (ms)", 1.68,
                    model.singleCoreLiftUs() / 1e3, "ms");
    bench::printRow("Scale Q->q, single core (ms)", 4.3,
                    model.singleCoreScaleUs() / 1e3, "ms");
    std::printf("\nBlock beats (cycles/coefficient): lift %zu "
                "(sop %zu, div %zu, residues %zu), scale %zu "
                "(division-bound, %.1fx the lift division)\n",
                model.liftBeat(), model.liftSopCycles(),
                model.liftDivisionCycles(), model.liftResidueCycles(),
                model.scaleBeat(),
                static_cast<double>(model.scaleDivisionCycles()) /
                    static_cast<double>(model.liftDivisionCycles()));

    // --- full Mult on both architectures --------------------------------
    // Table I's Mult: compute and key DMA, priced per instruction.
    auto mult_ms = [&](const HwConfig &config) {
        const compiler::CircuitRunStats mult =
            compiler::attributeCompiledCircuit(
                compiler::compileOpCircuit(params, compiler::NodeKind::kMult,
                                           config),
                DispatchMode::kPerInstruction)
                .cold.totals;
        return (config.cyclesToUs(mult.fpga_cycles) + mult.dma_us) / 1e3;
    };
    const double fast_ms = mult_ms(HwConfig::paper());
    const double slow_ms = mult_ms(trad);

    bench::printHeader("Mult on the two architectures");
    bench::printRow("HPS coprocessor Mult (ms)", 4.458, fast_ms, "ms");
    bench::printRow("Traditional coprocessor Mult (ms)", 8.3, slow_ms,
                    "ms");
    std::printf("\nSlowdown of the traditional architecture: %.2fx "
                "(paper: <2x thanks to the 3x smaller relin key)\n",
                slow_ms / fast_ms);

    const size_t n = params->degree();
    const size_t k = params->qBase()->size();
    json.record("trad_lift_single_core", model.singleCoreLiftUs() * 1e3,
                "ns", n, k);
    json.record("trad_scale_single_core", model.singleCoreScaleUs() * 1e3,
                "ns", n, k);
    json.record("hps_mult", fast_ms * 1e6, "ns", n, k);
    json.record("trad_mult", slow_ms * 1e6, "ns", n, k);

    // --- relinearization key sizes ----------------------------------------
    fv::KeyGenerator keygen(params, 1);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::RelinKeys rns_keys = keygen.generateRelinKeys(sk);
    fv::RelinKeys pos_keys = keygen.generatePositionalRelinKeys(sk, 90);

    bench::printHeader("Relinearization keys");
    bench::printRow("HPS architecture: key polynomials", 6,
                    static_cast<double>(rns_keys.digitCount()), "  ");
    bench::printRow("Traditional architecture: key polynomials", 2,
                    static_cast<double>(pos_keys.digitCount()), "  ");
    std::printf("\nKey bytes: HPS %zu, traditional %zu (%.1fx smaller "
                "-> paper: would be another 30%% slower with equal-size "
                "keys)\n",
                rns_keys.byteSize(), pos_keys.byteSize(),
                static_cast<double>(rns_keys.byteSize()) /
                    static_cast<double>(pos_keys.byteSize()));
    return 0;
}
