/**
 * @file
 * Circuit fusion: fused whole-circuit submission vs per-op round
 * trips, on the depth-4 mixed demo circuit (Add/Sub/MultPlain/Mult/
 * Square + relinearizations) over the paper parameter set.
 *
 * Three numbers:
 *  - fused modeled op/s: circuits submitted through
 *    ExecutionService::submitCircuit at workers=1; intermediates stay
 *    coprocessor-resident, inputs upload once, each on-chip segment
 *    costs one Arm dispatch;
 *  - unfused modeled op/s: the same circuit through
 *    compiler::runCircuitOpByOp — one host round trip and
 *    per-instruction dispatch for every node (the single-op serving
 *    model);
 *  - fused wall op/s: host wall clock of the functional simulation.
 *
 * It also records the static verifier's cost against the compile it
 * guards, warm (one compiled object verified repeatedly; gated) and
 * cold (each fresh compile verified once, as admission does).
 *
 * Exit status is the CI gate: fused modeled throughput must be
 * strictly above unfused.
 */

#include <algorithm>
#include <chrono>
#include <future>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/encryptor.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "service/service.h"
#include "verify/verify.h"

using namespace heat;

namespace {

fv::Plaintext
randomPlain(const fv::FvParams &params, uint64_t seed)
{
    Xoshiro256 rng(seed);
    fv::Plaintext p;
    p.coeffs.resize(params.degree());
    for (auto &c : p.coeffs)
        c = rng.uniformBelow(params.plainModulus());
    return p;
}

/** The depth-4 mixed circuit of the acceptance criteria. */
compiler::Circuit
demoCircuit(const fv::FvParams &params)
{
    compiler::CircuitBuilder b;
    const compiler::ValueId x = b.input();
    const compiler::ValueId y = b.input();
    const compiler::ValueId v1 = b.mult(x, y);
    const compiler::ValueId v2 = b.square(v1);
    const compiler::ValueId v3 = b.multPlain(v2, randomPlain(params, 31));
    const compiler::ValueId v4 = b.sub(v3, x);
    const compiler::ValueId v5 =
        b.addPlain(b.add(v4, y), randomPlain(params, 37));
    b.output(v5);
    return b.build();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter reporter("bench_circuit", argc, argv);

    auto params = fv::FvParams::paper(/*t=*/65537);
    fv::KeyGenerator keygen(params, 42);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::PublicKey pk = keygen.generatePublicKey(sk);
    fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor encryptor(params, pk, 43);

    const compiler::Circuit circuit = demoCircuit(*params);
    const size_t nodes = circuit.opCount();
    std::vector<fv::Ciphertext> inputs = {
        encryptor.encrypt(randomPlain(*params, 1)),
        encryptor.encrypt(randomPlain(*params, 2))};

    // --- fused: through the serving layer at workers=1 ------------------
    const size_t circuits = 4;
    service::ServiceConfig cfg;
    cfg.workers = 1;
    service::ExecutionService svc(params, rlk, cfg);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<std::vector<fv::Ciphertext>>> futures;
    for (size_t i = 0; i < circuits; ++i)
        futures.push_back(svc.submitCircuit(circuit, inputs));
    for (auto &f : futures)
        f.get();
    const auto t1 = std::chrono::steady_clock::now();
    svc.drain();

    const service::ServiceStats stats = svc.stats();
    const double wall_s = std::chrono::duration<double>(t1 - t0).count();
    const double fused_modeled =
        static_cast<double>(stats.circuit_nodes_completed) /
        stats.makespan_us * 1e6;
    const double fused_wall =
        static_cast<double>(stats.circuit_nodes_completed) / wall_s;

    // --- unfused: per-op round trips on one coprocessor -----------------
    hw::Coprocessor cp(params, cfg.hw, &rlk);
    compiler::CircuitRunStats unfused_stats;
    compiler::runCircuitOpByOp(cp, params, circuit, inputs,
                               &unfused_stats);
    const double unfused_modeled =
        static_cast<double>(nodes) /
        unfused_stats.modeledUs(cfg.hw) * 1e6;

    // Per-circuit detail from a direct compiled run.
    compiler::CompilerOptions options;
    options.hw = cfg.hw;
    const compiler::CompiledCircuit compiled =
        compiler::compileCircuit(params, circuit, options);
    compiler::CircuitRunStats fused_stats;
    compiler::runCompiledCircuit(cp, compiled, inputs, &fused_stats);

    // --- static-verifier overhead ---------------------------------------
    // The abstract interpreter runs on every compile (unless kOff)
    // and every service admission; it must stay a small fraction of
    // the compile it guards. Compiles and verifies alternate in
    // blocks, and the overhead is the median of the blocks' ratios, so
    // host noise during one block moves one ratio, not the figure.
    constexpr size_t kBlocks = 9;
    constexpr size_t kReps = 10;
    compiler::CompilerOptions unverified = options;
    unverified.verify = compiler::VerifyCheck::kOff;
    double compile_s = 0.0;
    double verify_s = 0.0;
    std::vector<double> ratios;
    for (size_t block = 0; block < kBlocks; ++block) {
        const auto c0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < kReps; ++i)
            compiler::compileCircuit(params, circuit, unverified);
        const auto c1 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < kReps; ++i) {
            const verify::VerifyResult vr =
                verify::verifyCompiledCircuit(compiled);
            if (!vr.ok()) {
                std::fprintf(stderr,
                             "bench circuit failed verification:\n%s\n",
                             vr.report().c_str());
                return 1;
            }
        }
        const auto c2 = std::chrono::steady_clock::now();
        const double block_compile_s =
            std::chrono::duration<double>(c1 - c0).count();
        const double block_verify_s =
            std::chrono::duration<double>(c2 - c1).count();
        compile_s += block_compile_s;
        verify_s += block_verify_s;
        ratios.push_back(block_verify_s / block_compile_s);
    }
    std::nth_element(ratios.begin(), ratios.begin() + kBlocks / 2,
                     ratios.end());
    const double compile_us = compile_s * 1e6 / (kBlocks * kReps);
    const double verify_us = verify_s * 1e6 / (kBlocks * kReps);
    const double verify_overhead_pct = 100.0 * ratios[kBlocks / 2];

    // The figure above is warm: one compiled object verified over and
    // over. Admission verifies each fresh compile once, so the cold
    // figure times one compile and then the verification of what it
    // produced, pair by pair, and takes the same median block ratio.
    std::vector<double> cold_ratios;
    for (size_t block = 0; block < kBlocks; ++block) {
        double block_compile_s = 0.0;
        double block_verify_s = 0.0;
        for (size_t i = 0; i < kReps; ++i) {
            const auto c0 = std::chrono::steady_clock::now();
            const compiler::CompiledCircuit fresh =
                compiler::compileCircuit(params, circuit, unverified);
            const auto c1 = std::chrono::steady_clock::now();
            const verify::VerifyResult vr =
                verify::verifyCompiledCircuit(fresh);
            const auto c2 = std::chrono::steady_clock::now();
            if (!vr.ok()) {
                std::fprintf(stderr,
                             "bench circuit failed verification:\n%s\n",
                             vr.report().c_str());
                return 1;
            }
            block_compile_s +=
                std::chrono::duration<double>(c1 - c0).count();
            block_verify_s +=
                std::chrono::duration<double>(c2 - c1).count();
        }
        cold_ratios.push_back(block_verify_s / block_compile_s);
    }
    std::nth_element(cold_ratios.begin(), cold_ratios.begin() + kBlocks / 2,
                     cold_ratios.end());
    const double verify_cold_overhead_pct = 100.0 * cold_ratios[kBlocks / 2];

    bench::printHeader("circuit fusion: depth-4 demo circuit "
                       "(8 ops, paper parameters)");
    bench::printInfo("fused modeled op/s", fused_modeled, "op/s");
    bench::printInfo("unfused modeled op/s", unfused_modeled, "op/s");
    bench::printInfo("fused wall op/s", fused_wall, "op/s");
    bench::printInfo("fused segments",
                     static_cast<double>(compiled.segments.size()), "");
    bench::printInfo("fused Arm dispatches",
                     static_cast<double>(fused_stats.dispatches), "");
    bench::printInfo("unfused Arm dispatches",
                     static_cast<double>(unfused_stats.dispatches), "");
    bench::printInfo("memory-file peak",
                     static_cast<double>(compiled.peak_slots), "slots");
    bench::printInfo("host polys fused up/down",
                     static_cast<double>(fused_stats.uploaded_polys +
                                         fused_stats.downloaded_polys),
                     "");
    bench::printInfo("host polys unfused up/down",
                     static_cast<double>(unfused_stats.uploaded_polys +
                                         unfused_stats.downloaded_polys),
                     "");
    bench::printInfo("compile time", compile_us, "us");
    bench::printInfo("verify time", verify_us, "us");
    bench::printInfo("verify overhead", verify_overhead_pct, "%");
    bench::printInfo("verify overhead, cold", verify_cold_overhead_pct, "%");

    reporter.record("fused_modeled_ops_per_sec", fused_modeled, "op/s",
                    params->degree(), params->qBase()->size());
    reporter.record("unfused_modeled_ops_per_sec", unfused_modeled,
                    "op/s", params->degree(), params->qBase()->size());
    reporter.record("fused_wall_ops_per_sec", fused_wall, "op/s",
                    params->degree(), params->qBase()->size());
    reporter.record("fused_speedup", fused_modeled / unfused_modeled,
                    "x", params->degree(), params->qBase()->size());
    reporter.record("compile_us", compile_us, "us", params->degree(),
                    params->qBase()->size());
    reporter.record("verify_us", verify_us, "us", params->degree(),
                    params->qBase()->size());
    reporter.record("verify_overhead_pct", verify_overhead_pct, "%",
                    params->degree(), params->qBase()->size());
    reporter.record("verify_cold_overhead_pct", verify_cold_overhead_pct,
                    "%", params->degree(), params->qBase()->size());

    const bool gate = fused_modeled > unfused_modeled;
    std::printf("\nfused vs unfused modeled throughput: %.2fx (%s)\n",
                fused_modeled / unfused_modeled,
                gate ? "fused wins" : "FUSION REGRESSION");
    return gate ? 0 : 1;
}
