/**
 * @file
 * Reproduces the headline result (Sec. VI-E): the two-coprocessor
 * accelerator sustains ~400 homomorphic multiplications per second at a
 * 200 MHz FPGA clock — >13x the optimized FV-NFLlib software baseline
 * (33 ms per Mult, 0.1 ms per Add on an Intel i5-3427U @ 1.8 GHz) and
 * ahead of the Tesla V100 implementation of Badawi et al. (~388 Mult/s
 * for the same n = 4096, 180-bit q operating point).
 *
 * Our substitution for the authors' testbed: the cycle-calibrated
 * system model (a start_paused service run whose workers share one DMA
 * engine) provides the accelerator side; this host's measured
 * performance of our own optimized software evaluator (same algorithms
 * as NFLlib: RNS + Shoup-multiplication NTT + HPS) provides a modern
 * software reference. Absolute software numbers differ from a 2012 i5 —
 * EXPERIMENTS.md discusses both ratios.
 */

#include <chrono>
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "common/parallel.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/power_model.h"

using namespace heat;
using Clock = std::chrono::steady_clock;

namespace {

double
measureUs(int iters, const std::function<void()> &fn)
{
    fn(); // warm up
    auto start = Clock::now();
    for (int i = 0; i < iters; ++i)
        fn();
    auto stop = Clock::now();
    return std::chrono::duration<double, std::micro>(stop - start)
               .count() /
           iters;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter json("speedup", argc, argv);
    auto params = fv::FvParams::paper();

    fv::KeyGenerator keygen(params, 11);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::PublicKey pk = keygen.generatePublicKey(sk);
    fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor encryptor(params, pk, 12);
    fv::Evaluator evaluator(params, fv::ArithPath::kHps);

    fv::Plaintext m;
    m.coeffs.assign(params->degree(), 1);
    fv::Ciphertext a = encryptor.encrypt(m);
    fv::Ciphertext b = encryptor.encrypt(m);

    // --- accelerator side (simulated) -----------------------------------
    const service::ServiceStats hw2 = bench::runMults(params, rlk, a, b, 2, 64);
    const service::ServiceStats hw1 = bench::runMults(params, rlk, a, b, 1, 32);
    const double hw2_mps = hw2.modeledOpsPerSecond();
    const double hw1_mps = hw1.modeledOpsPerSecond();

    // --- software side (measured on this host) ---------------------------
    const size_t n = params->degree();
    const size_t k = params->qBase()->size();
    const double sw_mult_us = measureUs(
        5, [&] { fv::Ciphertext c = evaluator.multiply(a, b, rlk); });
    const double sw_add_us =
        measureUs(50, [&] { fv::Ciphertext c = evaluator.add(a, b); });
    json.record("sw_mult", sw_mult_us * 1e3, "ns", n, k);
    json.record("sw_add", sw_add_us * 1e3, "ns", n, k);
    setThreadCount(4); // best on this host; more threads thrash
    const double sw_mult_mt_us = measureUs(
        5, [&] { fv::Ciphertext c = evaluator.multiply(a, b, rlk); });
    // Recorded before the thread count resets so the record carries
    // threads=4.
    json.record("sw_mult", sw_mult_mt_us * 1e3, "ns", n, k);
    setThreadCount(1);

    bench::printHeader("Sec. VI-E: throughput and speedup");
    bench::printRow("HW Mult/s, two coprocessors", 400.0, hw2_mps, "/s");
    bench::printRow("HW Mult/s, one coprocessor", 224.0, hw1_mps, "/s");
    bench::printRow("NFLlib SW Mult on i5 (paper)", 33.0, 33.0, "ms");
    bench::printRow("Tesla V100 Mult/s (Badawi et al.)", 388.0, 388.0,
                    "/s");

    std::printf("\nSoftware measured on this host (our evaluator):\n");
    std::printf("  Mult: %.2f ms (1 thread), %.2f ms (4 threads)   "
                "Add: %.3f ms\n",
                sw_mult_us / 1e3, sw_mult_mt_us / 1e3, sw_add_us / 1e3);

    const double paper_speedup = 400.0 / (1000.0 / 33.0);
    const double vs_paper_sw = hw2_mps / (1e6 / 33000.0);
    const double vs_this_host = hw2_mps / (1e6 / sw_mult_us);
    std::printf("\nSpeedup of the accelerator:\n");
    std::printf("  paper:           400 Mult/s vs 30.3 Mult/s  -> %.1fx "
                "(reported >13x)\n",
                paper_speedup);
    std::printf("  this repo:     %.0f Mult/s vs the paper's software "
                "baseline -> %.1fx\n",
                hw2_mps, vs_paper_sw);
    std::printf("  this repo:     %.0f Mult/s vs this host's software "
                "(%.1f ms)  -> %.1fx\n",
                hw2_mps, sw_mult_us / 1e3, vs_this_host);
    std::printf("  (a 2026 CPU is far faster than the paper's 2012-era "
                "i5; the 13x claim is\n   reproduced against the "
                "paper-contemporary baseline, see EXPERIMENTS.md)\n");

    hw::PowerModel power;
    std::printf("\nPower: accelerator peak %.1f W vs i5 under load ~40 W "
                "(paper Sec. VI-E)\n",
                power.totalW(2));
    std::printf("DMA utilization at steady state: %.0f%%; per-coprocessor "
                "compute utilization: %.0f%%\n",
                hw2.dmaUtilization() * 100.0,
                hw::HwConfig::paper().cyclesToUs(hw2.fpga_cycles) / 2.0 /
                    hw2.makespan_us * 100.0);

    json.record("hw_mults_per_s_2coproc", hw2_mps, "ops/s", n, k);
    json.record("hw_mults_per_s_1coproc", hw1_mps, "ops/s", n, k);
    return 0;
}
