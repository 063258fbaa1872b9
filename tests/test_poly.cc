/**
 * @file
 * heat::poly — depth-aware encrypted polynomial evaluation: plan
 * shapes (Paterson-Stockmeyer at ~2 sqrt(d) non-scalar mults and
 * depth ceil(log2 d) versus Horner's d-1 at depth d-1), slot-wise
 * correctness against the plaintext reference, bit-identity across
 * the evaluator / op-by-op / fused-coprocessor paths, compile-once/
 * submit-many through the serving layer, and the paper-parameter
 * noise gate: degree-15 Paterson-Stockmeyer compiles under
 * NoiseCheck::kReject while degree-15 Horner is rejected with a
 * node-level diagnostic.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <memory>
#include <vector>

#include "common/panic.h"
#include "common/random.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/batch_encoder.h"
#include "fv/decryptor.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "mp/primality.h"
#include "poly/poly.h"
#include "service/service.h"

namespace heat {
namespace {

using compiler::Circuit;
using compiler::CompiledCircuit;
using compiler::CompilerOptions;
using compiler::NoiseCheck;
using fv::Ciphertext;
using poly::EvalStrategy;
using poly::PlanInfo;
using poly::PolynomialEvaluator;

/** Batching universe over a small ring with enough q for depth 4. */
struct Universe
{
    explicit Universe(uint64_t seed, size_t q_primes = 7)
    {
        fv::FvConfig cfg;
        cfg.degree = 256;
        cfg.plain_modulus = 65537;
        cfg.sigma = 3.2;
        cfg.q_prime_count = q_primes;
        params = fv::FvParams::create(cfg);
        fv::KeyGenerator keygen(params, seed);
        sk = keygen.generateSecretKey();
        pk = keygen.generatePublicKey(sk);
        rlk = keygen.generateRelinKeys(sk);
        encryptor =
            std::make_unique<fv::Encryptor>(params, pk, seed ^ 0xF00D);
        decryptor = std::make_unique<fv::Decryptor>(
            params, fv::SecretKey{sk.s_ntt});
        evaluator = std::make_unique<fv::Evaluator>(params);
        encoder = std::make_unique<fv::BatchEncoder>(params);
        config = hw::HwConfig::paper();
        // Deep multiply chains at 7 q-primes need a memory file scaled
        // with the base (a lone Square peaks near 100 slots here; the
        // paper's 84-slot file is sized for its own 13 moduli).
        config.n_rpaus = params->fullBase()->size();
    }

    std::vector<uint64_t>
    randomSlots(uint64_t seed) const
    {
        Xoshiro256 rng(seed);
        std::vector<uint64_t> v(params->degree());
        for (auto &x : v)
            x = rng.uniformBelow(params->plainModulus());
        return v;
    }

    std::vector<uint64_t>
    randomCoeffs(uint64_t seed, int degree) const
    {
        Xoshiro256 rng(seed);
        std::vector<uint64_t> c(degree + 1);
        for (auto &x : c)
            x = rng.uniformBelow(params->plainModulus());
        if (c.back() == 0)
            c.back() = 1;
        return c;
    }

    std::shared_ptr<const fv::FvParams> params;
    fv::SecretKey sk;
    fv::PublicKey pk;
    fv::RelinKeys rlk;
    std::unique_ptr<fv::Encryptor> encryptor;
    std::unique_ptr<fv::Decryptor> decryptor;
    std::unique_ptr<fv::Evaluator> evaluator;
    std::unique_ptr<fv::BatchEncoder> encoder;
    hw::HwConfig config;
};

TEST(PolyPlan, PatersonStockmeyerShapeAtDegree15)
{
    Universe u(1);
    PolynomialEvaluator pe(u.params, u.randomCoeffs(11, 15));

    const PlanInfo ps = pe.plan(EvalStrategy::kPatersonStockmeyer);
    EXPECT_EQ(ps.degree, 15);
    EXPECT_EQ(ps.baby_step, 4u);
    EXPECT_EQ(ps.non_scalar_mults, 7u); // x^2 x^3 x^4 x^8 + 3 combines
    EXPECT_EQ(ps.mult_depth, 4);        // = ceil(log2 15)

    const PlanInfo horner = pe.plan(EvalStrategy::kHorner);
    EXPECT_EQ(horner.non_scalar_mults, 14u); // d - 1
    EXPECT_EQ(horner.mult_depth, 14);

    EXPECT_LT(ps.non_scalar_mults, horner.non_scalar_mults);
}

TEST(PolyPlan, DepthAndMultBoundsAcrossDegrees)
{
    Universe u(2);
    for (int d = 2; d <= 15; ++d) {
        PolynomialEvaluator pe(u.params, u.randomCoeffs(100 + d, d));
        const PlanInfo ps = pe.plan(EvalStrategy::kPatersonStockmeyer);
        const PlanInfo horner = pe.plan(EvalStrategy::kHorner);
        const int log2d = static_cast<int>(std::ceil(std::log2(d)));
        EXPECT_LE(ps.mult_depth, log2d) << "degree " << d;
        EXPECT_LE(static_cast<double>(ps.non_scalar_mults),
                  2.0 * std::sqrt(static_cast<double>(d)) + 1.0)
            << "degree " << d;
        EXPECT_EQ(horner.mult_depth, d - 1) << "degree " << d;
        EXPECT_LE(ps.non_scalar_mults, horner.non_scalar_mults)
            << "degree " << d;
    }
}

TEST(PolyPlan, SparseAndDegeneratePolynomials)
{
    Universe u(3);
    const uint64_t t = u.params->plainModulus();

    // x^15 alone: the power cache reaches it through shared squarings.
    std::vector<uint64_t> monomial(16, 0);
    monomial[15] = 1;
    PolynomialEvaluator mono(u.params, monomial);
    const PlanInfo plan = mono.plan(EvalStrategy::kPatersonStockmeyer);
    EXPECT_LE(plan.mult_depth, 4);
    EXPECT_LE(plan.non_scalar_mults, 7u);
    EXPECT_EQ(mono.reference(3), mp::powMod64(3, 15, t));

    // Trailing zeros trim away.
    PolynomialEvaluator trimmed(u.params,
                                std::vector<uint64_t>{5, 7, 0, 0});
    EXPECT_EQ(trimmed.degree(), 1);

    // Constants and over-degree polynomials are rejected. Degree 31 is
    // the cap now that the compiler's level assignment unlocks depth 5.
    EXPECT_THROW(PolynomialEvaluator(u.params,
                                     std::vector<uint64_t>{42}),
                 FatalError);
    EXPECT_NO_THROW(
        PolynomialEvaluator(u.params, std::vector<uint64_t>(32, 1)));
    EXPECT_THROW(
        PolynomialEvaluator(u.params, std::vector<uint64_t>(34, 1)),
        FatalError);
    // Coefficients that reduce to a constant mod t are rejected too.
    EXPECT_THROW(PolynomialEvaluator(u.params,
                                     std::vector<uint64_t>{3, t, t}),
                 FatalError);
}

TEST(PolyEval, EvaluatorMatchesPlaintextReference)
{
    Universe u(4);
    const std::vector<uint64_t> slots = u.randomSlots(21);
    const Ciphertext x = u.encryptor->encrypt(u.encoder->encode(slots));

    for (int d : {1, 2, 3, 5, 8, 12, 15}) {
        PolynomialEvaluator pe(u.params, u.randomCoeffs(200 + d, d));
        const Circuit circuit =
            pe.circuit(EvalStrategy::kPatersonStockmeyer);
        const std::vector<Ciphertext> out = compiler::evaluateCircuit(
            *u.evaluator, &u.rlk, circuit, std::vector<Ciphertext>{x});
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(u.encoder->decode(u.decryptor->decrypt(out[0])),
                  pe.reference(slots))
            << "degree " << d;
    }

    // Horner agrees wherever its depth still fits the measured budget.
    for (int d : {1, 2, 3, 5}) {
        PolynomialEvaluator pe(u.params, u.randomCoeffs(300 + d, d));
        const std::vector<Ciphertext> out = compiler::evaluateCircuit(
            *u.evaluator, &u.rlk, pe.circuit(EvalStrategy::kHorner),
            std::vector<Ciphertext>{x});
        EXPECT_EQ(u.encoder->decode(u.decryptor->decrypt(out[0])),
                  pe.reference(slots))
            << "degree " << d;
    }
}

TEST(PolyEval, FusedOpByOpAndEvaluatorAreBitIdentical)
{
    Universe u(5);
    PolynomialEvaluator pe(u.params, u.randomCoeffs(44, 15));
    const Circuit circuit =
        pe.circuit(EvalStrategy::kPatersonStockmeyer);

    const std::vector<uint64_t> slots = u.randomSlots(45);
    const std::vector<Ciphertext> inputs = {
        u.encryptor->encrypt(u.encoder->encode(slots))};

    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *u.evaluator, &u.rlk, circuit, inputs);

    CompilerOptions options;
    options.hw = u.config;
    options.noise_check = NoiseCheck::kOff; // small ring: model says no
    const CompiledCircuit compiled =
        compiler::compileCircuit(u.params, circuit, options);

    hw::Coprocessor cp(u.params, u.config, &u.rlk);
    const std::vector<Ciphertext> fused =
        compiler::runCompiledCircuit(cp, compiled, inputs);
    const std::vector<Ciphertext> op_by_op =
        compiler::runCircuitOpByOp(cp, u.params, circuit, inputs);

    EXPECT_EQ(fused, reference);
    EXPECT_EQ(op_by_op, reference);
    EXPECT_EQ(u.encoder->decode(u.decryptor->decrypt(fused[0])),
              pe.reference(slots));
}

TEST(PolyEval, ServiceCompileOnceSubmitMany)
{
    Universe u(6);
    PolynomialEvaluator pe(u.params, u.randomCoeffs(61, 15));

    CompilerOptions options;
    options.hw = u.config;
    options.noise_check = NoiseCheck::kOff;
    const auto compiled =
        std::make_shared<const CompiledCircuit>(compiler::compileCircuit(
            u.params, pe.circuit(EvalStrategy::kPatersonStockmeyer),
            options));

    service::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.hw = u.config;
    service::ExecutionService service(u.params, u.rlk, cfg);

    std::vector<std::vector<uint64_t>> batches;
    std::vector<std::future<std::vector<Ciphertext>>> futures;
    for (uint64_t i = 0; i < 3; ++i) {
        batches.push_back(u.randomSlots(70 + i));
        futures.push_back(service.submitCompiled(
            compiled, {u.encryptor->encrypt(
                          u.encoder->encode(batches.back()))}));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        const std::vector<Ciphertext> out = futures[i].get();
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(u.encoder->decode(u.decryptor->decrypt(out[0])),
                  pe.reference(batches[i]))
            << "submission " << i;
    }
    service.drain();
    EXPECT_EQ(service.stats().circuits_completed, 3u);
}

TEST(PolyNoise, TableVRowOneAcceptsPSAndRejectsHornerAtDegree15)
{
    // The tentpole acceptance story on the paper's Table V row-1 set
    // (the row with depth headroom at the batching modulus): the
    // depth-4 Paterson-Stockmeyer plan survives the noise pass with a
    // wide margin where depth-14 Horner is rejected with a node-level
    // diagnostic.
    auto params = fv::FvParams::tableV(1, 65537);
    Xoshiro256 rng(7);
    std::vector<uint64_t> coeffs(16);
    for (auto &c : coeffs)
        c = rng.uniformBelow(params->plainModulus());
    if (coeffs.back() == 0)
        coeffs.back() = 1;
    PolynomialEvaluator pe(params, coeffs);

    CompilerOptions reject;
    reject.noise_check = NoiseCheck::kReject;
    reject.hw.n_rpaus = params->fullBase()->size();
    const CompiledCircuit compiled = compiler::compileCircuit(
        params, pe.circuit(EvalStrategy::kPatersonStockmeyer), reject);
    EXPECT_GT(compiled.min_output_noise_budget_bits, 100.0);
    EXPECT_EQ(compiled.noise_exhausted_node, compiler::kNoValue);

    try {
        compiler::compileCircuit(
            params, pe.circuit(EvalStrategy::kHorner), reject);
        FAIL() << "degree-15 Horner must exhaust the depth budget";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("predicted noise budget exhausted at node"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("Paterson-Stockmeyer"), std::string::npos)
            << msg;
    }
}

TEST(PolyNoise, PaperSetModelIsConservativeForPSAtDegree15)
{
    // On the original paper set the measured budget of degree-15
    // Paterson-Stockmeyer stays (just) positive, but the conservative
    // model predicts exhaustion — the warn/annotate default records
    // that verdict without blocking compilation, and the reject mode
    // is the sizing signal pointing at Table V row 1.
    auto params = fv::FvParams::paper(65537);
    Xoshiro256 rng(9);
    std::vector<uint64_t> coeffs(16);
    for (auto &c : coeffs)
        c = rng.uniformBelow(params->plainModulus());
    if (coeffs.back() == 0)
        coeffs.back() = 1;
    PolynomialEvaluator pe(params, coeffs);

    CompilerOptions off;
    off.noise_check = NoiseCheck::kOff;
    const CompiledCircuit compiled = compiler::compileCircuit(
        params, pe.circuit(EvalStrategy::kPatersonStockmeyer), off);
    EXPECT_EQ(compiled.min_output_noise_budget_bits, 0.0);
    EXPECT_NE(compiled.noise_exhausted_node, compiler::kNoValue);
}

TEST(PolyNoise, Degree31PSNeedsTheCompilersLevelAssignment)
{
    // Degree 16..31 Paterson-Stockmeyer is multiplicative depth 5 —
    // one past what the 7-prime chain supports without level drops, so
    // NoiseCheck::kReject alone refuses the plan. With
    // CompilerOptions::auto_mod_switch the level-assignment pass
    // inserts mod-switches after the relinearizations, the compile
    // succeeds with budget to spare, and the lowered circuit still
    // evaluates the polynomial exactly.
    fv::FvConfig cfg;
    cfg.degree = 8192;
    cfg.plain_modulus = 65537;
    cfg.sigma = 3.2;
    cfg.q_prime_count = 7;
    auto params = fv::FvParams::create(cfg);

    Xoshiro256 rng(91);
    std::vector<uint64_t> coeffs(32);
    for (auto &c : coeffs)
        c = rng.uniformBelow(params->plainModulus());
    if (coeffs.back() == 0)
        coeffs.back() = 1;
    PolynomialEvaluator pe(params, coeffs);
    const PlanInfo plan = pe.plan(EvalStrategy::kPatersonStockmeyer);
    EXPECT_EQ(plan.degree, 31);
    EXPECT_EQ(plan.mult_depth, 5);

    const Circuit circuit =
        pe.circuit(EvalStrategy::kPatersonStockmeyer);
    CompilerOptions reject;
    reject.noise_check = NoiseCheck::kReject;
    reject.hw.n_rpaus = params->fullBase()->size();
    try {
        compiler::compileCircuit(params, circuit, reject);
        FAIL() << "depth-5 PS-31 must be rejected without level "
                  "assignment";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("auto_mod_switch"),
                  std::string::npos)
            << e.what();
    }

    reject.auto_mod_switch = true;
    const CompiledCircuit compiled =
        compiler::compileCircuit(params, circuit, reject);
    EXPECT_GT(compiled.min_output_noise_budget_bits, 0.0);
    size_t drops = 0;
    for (const auto &node : compiled.circuit.nodes)
        drops += node.kind == compiler::NodeKind::kModSwitch ? 1 : 0;
    EXPECT_GT(drops, 0u);

    fv::KeyGenerator keygen(params, 92);
    const fv::SecretKey sk = keygen.generateSecretKey();
    const fv::PublicKey pk = keygen.generatePublicKey(sk);
    const fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor encryptor(params, pk, 93);
    fv::Decryptor decryptor(params, fv::SecretKey{sk.s_ntt});
    fv::Evaluator evaluator(params);
    fv::BatchEncoder encoder(params);

    std::vector<uint64_t> slots(encoder.slotCount());
    Xoshiro256 slot_rng(94);
    for (auto &s : slots)
        s = slot_rng.uniformBelow(params->plainModulus());
    const std::vector<Ciphertext> out = compiler::evaluateCircuit(
        evaluator, &rlk, compiled.circuit,
        std::vector<Ciphertext>{
            encryptor.encrypt(encoder.encode(slots))});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GT(out[0].level, 0u);
    EXPECT_GT(decryptor.invariantNoiseBudget(out[0]), 0.0);
    EXPECT_EQ(encoder.decode(decryptor.decrypt(out[0])),
              pe.reference(slots));
}

TEST(PolyInterpolate, LagrangeRoundTrip)
{
    const uint64_t t = 65537;
    Xoshiro256 rng(8);
    std::vector<uint64_t> points(16);
    for (auto &p : points)
        p = rng.uniformBelow(t);

    const std::vector<uint64_t> coeffs =
        poly::interpolateOnRange(points, t);
    ASSERT_EQ(coeffs.size(), 16u);
    for (uint64_t x = 0; x < points.size(); ++x) {
        uint64_t acc = 0;
        for (size_t c = coeffs.size(); c-- > 0;)
            acc = (mp::mulMod64(acc, x, t) + coeffs[c]) % t;
        EXPECT_EQ(acc, points[x]) << "node " << x;
    }
}

} // namespace
} // namespace heat
