/**
 * @file
 * Rotation-heavy linalg workload: a 16x16 diagonal-method encrypted
 * matrix-vector product (15 rotations of one ciphertext + 16 plaintext
 * diagonal multiplies) at the paper parameter set, in three lowerings:
 *
 *  - hoisted fused: compileCircuit with rotation hoisting — all 15
 *    rotations share one key-switch decompose (WordDecomp broadcast +
 *    digit NTTs paid once), intermediates coprocessor-resident;
 *  - unhoisted fused: the same fused compilation with hoisting
 *    disabled — bit-identical results, but every rotation pays its own
 *    decompose (the honest cost of skipping HEAX-style hoisting);
 *  - op-by-op: runCircuitOpByOp — one host round trip and
 *    per-instruction Arm dispatch per node, the single-op serving
 *    model.
 *
 * Exit status is the CI gate: hoisted fused modeled throughput must be
 * strictly above both the unhoisted schedule and op-by-op submission.
 *
 * Host clock: `hoisted_hw_vs_sw_host_ratio` is the wall time of the
 * hoisted fused run on the simulated coprocessor over the software
 * evaluator's hoisted path (compiler::evaluateCircuit) on the same
 * request, best of several runs each in this process; CI bounds it.
 *
 * `hoisted_transform_instructions` counts the NTT and INTT instructions
 * of the hoisted fused program; CI gates it exactly, so a lowering that
 * transforms back what the next operation transforms again shows.
 */

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/decryptor.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "linalg/linalg.h"

using namespace heat;

int
main(int argc, char **argv)
{
    bench::JsonReporter reporter("bench_linalg", argc, argv);

    auto params = fv::FvParams::paper(/*t=*/65537);
    fv::KeyGenerator keygen(params, 42);
    fv::SecretKey sk = keygen.generateSecretKey();
    fv::PublicKey pk = keygen.generatePublicKey(sk);
    fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor encryptor(params, pk, 43);
    fv::Decryptor decryptor(params, sk);

    const size_t d = 16;
    Xoshiro256 rng(7);
    std::vector<std::vector<uint64_t>> matrix(d);
    for (auto &row : matrix) {
        row.resize(d);
        for (auto &x : row)
            x = rng.uniformBelow(params->plainModulus());
    }
    linalg::MatVec mv(params, matrix);
    const fv::GaloisKeys gkeys =
        keygen.generateGaloisKeys(sk, mv.requiredGaloisElements());

    std::vector<uint64_t> v(d);
    for (auto &x : v)
        x = rng.uniformBelow(params->plainModulus());
    std::vector<fv::Ciphertext> inputs = {
        encryptor.encrypt(mv.encodeVector(v))};

    const size_t nodes = mv.circuit().opCount();
    compiler::CompilerOptions hoisted_opts;
    compiler::CompilerOptions unhoisted_opts;
    unhoisted_opts.hoist_rotations = false;

    const compiler::CompiledCircuit hoisted = compiler::compileCircuit(
        params, mv.circuit(), hoisted_opts);
    const compiler::CompiledCircuit unhoisted =
        compiler::compileCircuit(params, mv.circuit(), unhoisted_opts);

    hw::Coprocessor cp(params, hoisted_opts.hw, &rlk, &gkeys);
    compiler::CircuitRunStats hoisted_stats;
    const std::vector<fv::Ciphertext> out = compiler::runCompiledCircuit(
        cp, hoisted, inputs, &hoisted_stats);
    compiler::CircuitRunStats unhoisted_stats;
    const std::vector<fv::Ciphertext> out_unhoisted =
        compiler::runCompiledCircuit(cp, unhoisted, inputs,
                                     &unhoisted_stats);
    compiler::CircuitRunStats op_stats;
    const std::vector<fv::Ciphertext> out_op_by_op =
        compiler::runCircuitOpByOp(cp, params, mv.circuit(), inputs,
                                   &op_stats);

    // Correctness backstop: all three lowerings are bit-identical and
    // decrypt to the plaintext reference.
    if (!(out == out_unhoisted && out == out_op_by_op)) {
        std::printf("FAILED: lowerings disagree\n");
        return 1;
    }
    if (mv.decodeResult(decryptor.decrypt(out[0])) != mv.reference(v)) {
        std::printf("FAILED: matvec result is wrong\n");
        return 1;
    }

    // Host time, simulator against evaluator, best of kHostRuns each
    // (interleaved so both see the same machine load).
    const fv::Evaluator evaluator(params);
    const auto ms_of = [](auto &&run) {
        const auto t0 = std::chrono::steady_clock::now();
        run();
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    constexpr int kHostRuns = 5;
    double hw_host_ms = std::numeric_limits<double>::infinity();
    double sw_host_ms = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kHostRuns; ++i) {
        std::vector<fv::Ciphertext> hw_out, sw_out;
        hw_host_ms = std::min(hw_host_ms, ms_of([&] {
            hw_out = compiler::runCompiledCircuit(cp, hoisted, inputs);
        }));
        sw_host_ms = std::min(sw_host_ms, ms_of([&] {
            sw_out = compiler::evaluateCircuit(evaluator, &rlk,
                                               mv.circuit(), inputs,
                                               &gkeys);
        }));
        if (hw_out != out || sw_out != out) {
            std::printf("FAILED: timed runs disagree with the hoisted "
                        "result\n");
            return 1;
        }
    }
    const double host_ratio = hw_host_ms / sw_host_ms;

    // The transforms the fused program keeps: the NTT-domain dataflow
    // leaves the digits', c0's and the first product's forward NTTs
    // and the output's inverse ones.
    size_t transforms = 0;
    for (const compiler::Segment &seg : hoisted.segments)
        for (const hw::Instruction &instr : seg.program.instrs)
            transforms += instr.op == hw::Opcode::kNtt ||
                          instr.op == hw::Opcode::kIntt;

    const auto ops_per_sec = [&](const compiler::CircuitRunStats &s) {
        return static_cast<double>(nodes) /
               s.modeledUs(hoisted_opts.hw) * 1e6;
    };
    const double hoisted_ops = ops_per_sec(hoisted_stats);
    const double unhoisted_ops = ops_per_sec(unhoisted_stats);
    const double op_by_op_ops = ops_per_sec(op_stats);

    bench::printHeader("heat::linalg 16x16 diagonal matvec "
                       "(15 hoistable rotations, paper parameters)");
    bench::printInfo("hoisted fused modeled op/s", hoisted_ops, "op/s");
    bench::printInfo("unhoisted fused modeled op/s", unhoisted_ops,
                     "op/s");
    bench::printInfo("op-by-op modeled op/s", op_by_op_ops, "op/s");
    bench::printInfo("hoisted instructions",
                     static_cast<double>(hoisted.instructionCount()),
                     "");
    bench::printInfo("unhoisted instructions",
                     static_cast<double>(unhoisted.instructionCount()),
                     "");
    bench::printInfo("hoisted NTT + INTT instructions",
                     static_cast<double>(transforms), "");
    bench::printInfo("hoisted memory-file peak",
                     static_cast<double>(hoisted.peak_slots), "slots");
    bench::printInfo("hoisted fused host time (simulator)", hw_host_ms,
                     "ms");
    bench::printInfo("hoisted host time (fv::Evaluator)", sw_host_ms,
                     "ms");
    bench::printInfo("simulator / evaluator host ratio", host_ratio, "x");

    const size_t n = params->degree();
    const size_t moduli = params->qBase()->size();
    reporter.record("hoisted_modeled_ops_per_sec", hoisted_ops, "op/s",
                    n, moduli);
    reporter.record("unhoisted_modeled_ops_per_sec", unhoisted_ops,
                    "op/s", n, moduli);
    reporter.record("opbyop_modeled_ops_per_sec", op_by_op_ops, "op/s",
                    n, moduli);
    reporter.record("hoisting_speedup", hoisted_ops / unhoisted_ops,
                    "x", n, moduli);
    reporter.record("fused_vs_opbyop_speedup",
                    hoisted_ops / op_by_op_ops, "x", n, moduli);
    reporter.record("hoisted_transform_instructions",
                    static_cast<double>(transforms), "count", n, moduli);
    reporter.record("hoisted_hw_host_ms", hw_host_ms, "ms", n, moduli);
    reporter.record("hoisted_sw_host_ms", sw_host_ms, "ms", n, moduli);
    reporter.record("hoisted_hw_vs_sw_host_ratio", host_ratio, "x", n,
                    moduli);

    const bool gate =
        hoisted_ops > op_by_op_ops && hoisted_ops > unhoisted_ops;
    std::printf("\nhoisted fused vs op-by-op: %.2fx, vs unhoisted "
                "fused: %.2fx (%s)\n",
                hoisted_ops / op_by_op_ops,
                hoisted_ops / unhoisted_ops,
                gate ? "hoisted wins" : "HOISTING REGRESSION");
    return gate ? 0 : 1;
}
