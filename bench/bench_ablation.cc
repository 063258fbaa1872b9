/**
 * @file
 * Ablations of the paper's design decisions (Sec. V "Discussions"
 * invites exactly this: "design decisions can be tweaked to meet
 * different requirements"):
 *
 *   1. butterfly cores per RPAU  — why two is the sweet spot
 *      (BRAM ports feed at most four coefficients per cycle);
 *   2. Lift/Scale core count     — latency vs DSP cost;
 *   3. RPAU count                — 7 (resource-shared) vs 13 (fully
 *      parallel, idle half the time) vs 4;
 *   4. relinearization digit width — key size vs noise (measured on the
 *      real scheme, not modeled);
 *   5. sliding-window vs Barrett reduction — hardware cost and measured
 *      software latency;
 *   6. twiddle ROM vs on-the-fly twiddles — the paper's 20%-bubble
 *      argument.
 */

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "compiler/compiler.h"
#include "fv/decryptor.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "hw/resource_model.h"

using namespace heat;
using namespace heat::hw;

namespace {

double
multUs(const HwConfig &config)
{
    auto params = fv::FvParams::paper();
    Coprocessor cp(params, config);
    const Program p =
        compiler::compileOpCircuit(params, compiler::NodeKind::kMult, config)
            .segments.at(0)
            .program;
    double us = 0;
    for (const auto &i : p.instrs) {
        us += config.cyclesToUs(cp.instructionCycles(i));
        us += cp.instructionDmaUs(i);
    }
    return us;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter json("ablation", argc, argv);
    auto params = fv::FvParams::paper();
    const size_t n = params->degree();

    // --- 1. butterfly cores ------------------------------------------------
    std::printf("=== Ablation 1: butterfly cores per RPAU ===\n");
    std::printf("%8s %16s %16s %12s\n", "cores", "fed by BRAM", "NTT "
                "stage (cy)", "DSP/RPAU");
    for (size_t cores : {size_t(1), size_t(2), size_t(4)}) {
        // Two 60-bit words/cycle = 4 coefficients = 2 butterflies is the
        // memory ceiling (Sec. V-A2): extra cores starve.
        const size_t fed = std::min<size_t>(cores, 2);
        const size_t stage_cycles = n / 2 / fed;
        std::printf("%8zu %16zu %16zu %12zu\n", cores, fed, stage_cycles,
                    cores * 4);
    }
    std::printf("-> 2 cores saturate the two BRAM banks; 4 cores double "
                "DSP cost for zero speedup (the paper's choice).\n\n");

    // --- 2. Lift/Scale cores -----------------------------------------------
    std::printf("=== Ablation 2: Lift/Scale core count (HPS, 200 MHz) "
                "===\n");
    std::printf("%8s %14s %14s %14s\n", "cores", "Lift (us)", "Mult (ms)",
                "DSP/coproc");
    for (size_t cores : {size_t(1), size_t(2), size_t(4)}) {
        HwConfig config = HwConfig::paper();
        config.lift_scale_cores = cores;
        auto p = fv::FvParams::paper();
        LiftUnit lift(p, config);
        ResourceModel rm(*p, config);
        const double mult_us = multUs(config);
        std::printf("%8zu %14.1f %14.2f %14.0f\n", cores,
                    config.cyclesToUs(lift.cycles()), mult_us / 1e3,
                    rm.coprocessor().dsp);
        char kernel[48];
        std::snprintf(kernel, sizeof(kernel), "mult_lift_cores%zu",
                      cores);
        json.record(kernel, mult_us * 1e3, "ns", n,
                    p->qBase()->size());
    }
    std::printf("-> the paper's 2 cores balance the Lift/Scale time "
                "against the NTT-dominated remainder.\n\n");

    // --- 3. RPAU count ----------------------------------------------------
    std::printf("=== Ablation 3: RPAU count (batching of the 13-prime "
                "base) ===\n");
    std::printf("%8s %10s %18s %14s\n", "RPAUs", "batches",
                "full-base NTT (us)", "DSP for NTT");
    {
        HwConfig config = HwConfig::paper();
        NttEngine engine(config, n);
        const double one_batch = config.cyclesToUs(
            engine.forwardCycles() + config.dispatch_overhead);
        for (size_t rpaus : {size_t(4), size_t(7), size_t(13)}) {
            const size_t batches = (13 + rpaus - 1) / rpaus;
            std::printf("%8zu %10zu %18.1f %14zu\n", rpaus, batches,
                        one_batch * static_cast<double>(batches),
                        rpaus * 2 * 4);
        }
    }
    std::printf("-> 7 RPAUs halve the area of 13 at the cost of one "
                "extra batch pass; computation spends most time in the "
                "q base where 6 of 7 units are busy (Sec. V-A1).\n\n");

    // --- 4. relinearization digit width (measured) -----------------------
    std::printf("=== Ablation 4: positional relin digit width (measured "
                "on n=256 scheme) ===\n");
    fv::FvConfig small;
    small.degree = 256;
    small.plain_modulus = 4;
    small.sigma = 3.2;
    small.q_prime_count = 3;
    auto sp = fv::FvParams::create(small);
    fv::KeyGenerator keygen(sp, 42);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::PublicKey pk = keygen.generatePublicKey(sk);
    fv::Encryptor encryptor(sp, pk, 1);
    fv::Decryptor decryptor(sp, sk);
    fv::Evaluator evaluator(sp);
    fv::Plaintext m;
    m.coeffs = {1, 1, 0, 1};

    std::printf("%12s %8s %12s %18s\n", "digit bits", "digits",
                "key bytes", "budget after mult");
    for (int bits : {15, 30, 45, 90}) {
        fv::RelinKeys rlk = keygen.generatePositionalRelinKeys(sk, bits);
        fv::Ciphertext ct = evaluator.multiply(encryptor.encrypt(m),
                                               encryptor.encrypt(m), rlk);
        std::printf("%12d %8zu %12zu %18.1f\n", bits, rlk.digitCount(),
                    rlk.byteSize(),
                    decryptor.invariantNoiseBudget(ct));
    }
    {
        fv::RelinKeys rns_rlk = keygen.generateRelinKeys(sk);
        fv::Ciphertext ct = evaluator.multiply(
            encryptor.encrypt(m), encryptor.encrypt(m), rns_rlk);
        std::printf("%12s %8zu %12zu %18.1f\n", "RNS(30)",
                    rns_rlk.digitCount(), rns_rlk.byteSize(),
                    decryptor.invariantNoiseBudget(ct));
    }
    std::printf("-> wider digits shrink the key but cost noise budget; "
                "the RNS decomposition matches 30-bit digits with zero "
                "decomposition cost (the HPS architecture's choice).\n\n");

    // --- 5. sliding window vs Barrett ------------------------------------
    std::printf("=== Ablation 5: modular reduction circuit ===\n");
    {
        auto p = fv::FvParams::paper();
        HwConfig config = HwConfig::paper();
        ResourceModel rm(*p, config);
        Resources sw = rm.slidingWindowReducer();
        // A Barrett reducer needs two extra wide multipliers.
        Resources barrett = rm.mult30x30() + rm.mult30x30();
        barrett += {500, 400, 0, 0};
        std::printf("  sliding window: %4.0f LUT, %2.0f DSP per reducer "
                    "(x14 cores: %3.0f DSP)\n",
                    sw.lut, sw.dsp, 14 * sw.dsp);
        std::printf("  Barrett:        %4.0f LUT, %2.0f DSP per reducer "
                    "(x14 cores: %3.0f DSP)\n",
                    barrett.lut, barrett.dsp, 14 * barrett.dsp);

        // Measured software latency of both reductions.
        rns::Modulus q = p->qBase()->modulus(0);
        Xoshiro256 rng(3);
        volatile uint64_t sink = 0;
        const int iters = 2000000;
        uint64_t x = rng.uniformBelow(q.value());
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            x = q.slidingWindowReduce(x * (x | 1));
        sink = x;
        auto t1 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            x = q.reduce128(uint128_t(x) * (x | 1));
        sink = x;
        auto t2 = std::chrono::steady_clock::now();
        (void)sink;
        const double ns_sw =
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            iters;
        const double ns_b =
            std::chrono::duration<double, std::nano>(t2 - t1).count() /
            iters;
        std::printf("  software: sliding window %.1f ns, Barrett %.1f ns "
                    "per reduction\n",
                    ns_sw, ns_b);
        json.record("reduce_sliding_window", ns_sw, "ns", 0, 1);
        json.record("reduce_barrett", ns_b, "ns", 0, 1);
    }
    std::printf("-> in hardware the sliding window trades DSPs (the "
                "scarce multiplier resource) for LUT-based tables; in "
                "software Barrett wins, which is why the library uses it "
                "and the HW model uses the window.\n\n");

    // --- 6. twiddle storage ------------------------------------------------
    std::printf("=== Ablation 6: twiddle factors in ROM vs on the fly "
                "===\n");
    {
        HwConfig config = HwConfig::paper();
        NttEngine engine(config, n);
        const double stored = config.cyclesToUs(engine.forwardCycles());
        // Prior work [20] loses ~20% of NTT cycles to twiddle-dependency
        // bubbles when computing twiddles on the fly (Sec. V-A4).
        std::printf("  stored twiddles (this design): %.1f us/NTT, "
                    "7 BRAM36/RPAU\n",
                    stored);
        std::printf("  on-the-fly twiddles [20]:      %.1f us/NTT "
                    "(+20%% bubbles), 0 BRAM but +1 multiplier/core\n",
                    stored * 1.2);
    }
    return 0;
}
