/**
 * @file
 * Hardware-vs-software differential suite: for randomized plaintexts
 * and keys, every operation the serving layer dispatches to the
 * simulated coprocessors (Add, Mult, relinearization) must agree with
 * the pure-software fv::Evaluator — bit-identical ciphertext data on
 * the shared HPS path and bit-identical decryptions everywhere. This
 * is the conformance oracle behind heat::service: if the two paths
 * ever diverge, the serving layer is silently corrupting results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <span>
#include <vector>

#include "common/random.h"
#include "compiler/attribution.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/decryptor.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "fv/params.h"
#include "hw/coprocessor.h"
#include "service/service.h"
#include "verify/verify.h"

namespace heat {
namespace {

using fv::ArithPath;
using fv::Ciphertext;
using fv::Plaintext;

/** One randomized key/encryptor universe over a small ring. */
struct Universe
{
    Universe(uint64_t seed, uint64_t t = 4, size_t degree = 256,
             size_t q_primes = 3)
    {
        fv::FvConfig cfg;
        cfg.degree = degree;
        cfg.plain_modulus = t;
        cfg.sigma = 3.2;
        cfg.q_prime_count = q_primes;
        params = fv::FvParams::create(cfg);
        fv::KeyGenerator keygen(params, seed);
        sk = keygen.generateSecretKey();
        pk = keygen.generatePublicKey(sk);
        rlk = keygen.generateRelinKeys(sk);
        gkeys = keygen.generateGaloisKeys(
            sk, {fv::galoisElementForStep(1, degree),
                 fv::galoisElementForStep(-1, degree),
                 fv::galoisElementForStep(2, degree),
                 fv::galoisElementForStep(3, degree),
                 static_cast<uint32_t>(2 * degree - 1)});
        encryptor =
            std::make_unique<fv::Encryptor>(params, pk, seed ^ 0xABCD);
        decryptor = std::make_unique<fv::Decryptor>(
            params, fv::SecretKey{sk.s_ntt});
        evaluator =
            std::make_unique<fv::Evaluator>(params, ArithPath::kHps);
        config = hw::HwConfig::paper();
        config.n_rpaus = (params->fullBase()->size() + 1) / 2;
    }

    Plaintext
    randomPlain(uint64_t seed) const
    {
        Xoshiro256 rng(seed);
        Plaintext p;
        p.coeffs.resize(params->degree());
        for (auto &c : p.coeffs)
            c = rng.uniformBelow(params->plainModulus());
        return p;
    }

    /**
     * Run one op through a fresh coprocessor as the one-node circuit
     * add(x, y) or mult(x, y) — the program the service runs for
     * submit(Op).
     */
    Ciphertext
    runHw(compiler::NodeKind kind, const Ciphertext &x,
          const Ciphertext &y) const
    {
        hw::Coprocessor cp(params, config, &rlk, &gkeys);
        return compiler::runCompiledCircuit(
                   cp, compiler::compileOpCircuit(params, kind, config),
                   std::vector<Ciphertext>{x, y})
            .at(0);
    }

    /**
     * Run one single-node circuit through the hardware compiler path
     * (the only hw lowering of Sub/Negate/AddPlain/MultPlain/Square).
     */
    std::vector<Ciphertext>
    runHwCircuit(const compiler::Circuit &circuit,
                 std::span<const Ciphertext> inputs,
                 const fv::GaloisKeys *galois_override = nullptr) const
    {
        compiler::CompilerOptions options;
        options.hw = config;
        const compiler::CompiledCircuit compiled =
            compiler::compileCircuit(params, circuit, options);
        hw::Coprocessor cp(params, config, &rlk,
                           galois_override != nullptr ? galois_override
                                                      : &gkeys);
        return compiler::runCompiledCircuit(cp, compiled, inputs);
    }

    std::shared_ptr<const fv::FvParams> params;
    fv::SecretKey sk;
    fv::PublicKey pk;
    fv::RelinKeys rlk;
    fv::GaloisKeys gkeys;
    std::unique_ptr<fv::Encryptor> encryptor;
    std::unique_ptr<fv::Decryptor> decryptor;
    std::unique_ptr<fv::Evaluator> evaluator;
    hw::HwConfig config;
};

TEST(Differential, AddBitExactAcrossRandomKeys)
{
    for (uint64_t key_seed : {11u, 22u, 33u}) {
        Universe u(key_seed);
        for (uint64_t i = 0; i < 3; ++i) {
            Ciphertext x =
                u.encryptor->encrypt(u.randomPlain(100 * key_seed + i));
            Ciphertext y =
                u.encryptor->encrypt(u.randomPlain(200 * key_seed + i));
            Ciphertext hw = u.runHw(compiler::NodeKind::kAdd, x, y);
            Ciphertext sw = u.evaluator->add(x, y);
            EXPECT_EQ(hw, sw) << "key seed " << key_seed << " draw " << i;
            EXPECT_EQ(u.decryptor->decrypt(hw), u.decryptor->decrypt(sw));
        }
    }
}

TEST(Differential, MultBitExactAcrossRandomKeys)
{
    for (uint64_t key_seed : {5u, 17u}) {
        Universe u(key_seed);
        for (uint64_t i = 0; i < 2; ++i) {
            Ciphertext x =
                u.encryptor->encrypt(u.randomPlain(300 * key_seed + i));
            Ciphertext y =
                u.encryptor->encrypt(u.randomPlain(400 * key_seed + i));
            Ciphertext hw = u.runHw(compiler::NodeKind::kMult, x, y);
            Ciphertext sw = u.evaluator->multiply(x, y, u.rlk);
            EXPECT_EQ(hw, sw) << "key seed " << key_seed << " draw " << i;
            EXPECT_EQ(u.decryptor->decrypt(hw), u.decryptor->decrypt(sw));
        }
    }
}

TEST(Differential, RelinearizationMatchesSoftwarePath)
{
    // The hardware Mult fuses tensor + relin; pin the relin half by
    // comparing against the software pipeline spelled out in two steps,
    // and check relinearization preserved the plaintext.
    Universe u(29);
    Ciphertext x = u.encryptor->encrypt(u.randomPlain(1));
    Ciphertext y = u.encryptor->encrypt(u.randomPlain(2));

    Ciphertext staged = u.evaluator->multiplyNoRelin(x, y);
    Plaintext before_relin = u.decryptor->decrypt(staged);
    u.evaluator->relinearizeInPlace(staged, u.rlk);
    ASSERT_EQ(staged.size(), 2u);

    Ciphertext hw = u.runHw(compiler::NodeKind::kMult, x, y);
    EXPECT_EQ(hw, staged);
    EXPECT_EQ(u.decryptor->decrypt(hw), before_relin);
}

TEST(Differential, LargerPlainModulusStaysBitExact)
{
    Universe u(41, /*t=*/65537);
    Ciphertext x = u.encryptor->encrypt(u.randomPlain(7));
    Ciphertext y = u.encryptor->encrypt(u.randomPlain(8));
    Ciphertext hw = u.runHw(compiler::NodeKind::kMult, x, y);
    EXPECT_EQ(hw, u.evaluator->multiply(x, y, u.rlk));
}

TEST(Differential, ExactCrtOracleDecryptsIdentically)
{
    // The exact-CRT evaluator is the traditional-datapath oracle: its
    // ciphertexts may differ from the HPS/hardware ones by +-1 in
    // isolated coefficients, but the decryptions must agree.
    Universe u(53);
    fv::Evaluator exact(u.params, ArithPath::kExactCrt);
    Ciphertext x = u.encryptor->encrypt(u.randomPlain(9));
    Ciphertext y = u.encryptor->encrypt(u.randomPlain(10));
    Ciphertext hw = u.runHw(compiler::NodeKind::kMult, x, y);
    Ciphertext oracle = exact.multiply(x, y, u.rlk);
    EXPECT_EQ(u.decryptor->decrypt(hw), u.decryptor->decrypt(oracle));
}

TEST(Differential, SubBitExactAcrossRandomKeys)
{
    for (uint64_t key_seed : {7u, 19u}) {
        Universe u(key_seed, /*t=*/257);
        compiler::CircuitBuilder b;
        const auto x = b.input();
        const auto y = b.input();
        b.output(b.sub(x, y));
        const compiler::Circuit circuit = b.build();
        for (uint64_t i = 0; i < 3; ++i) {
            std::vector<Ciphertext> in = {
                u.encryptor->encrypt(u.randomPlain(700 * key_seed + i)),
                u.encryptor->encrypt(u.randomPlain(800 * key_seed + i))};
            Ciphertext hw = u.runHwCircuit(circuit, in)[0];
            Ciphertext sw = u.evaluator->sub(in[0], in[1]);
            EXPECT_EQ(hw, sw) << "key seed " << key_seed << " draw " << i;
            EXPECT_EQ(u.decryptor->decrypt(hw), u.decryptor->decrypt(sw));
        }
    }
}

TEST(Differential, NegateBitExactAcrossRandomKeys)
{
    for (uint64_t key_seed : {13u, 27u}) {
        Universe u(key_seed, /*t=*/257);
        compiler::CircuitBuilder b;
        b.output(b.negate(b.input()));
        const compiler::Circuit circuit = b.build();
        for (uint64_t i = 0; i < 3; ++i) {
            std::vector<Ciphertext> in = {
                u.encryptor->encrypt(u.randomPlain(910 * key_seed + i))};
            Ciphertext hw = u.runHwCircuit(circuit, in)[0];
            Ciphertext sw = in[0];
            u.evaluator->negateInPlace(sw);
            EXPECT_EQ(hw, sw) << "key seed " << key_seed << " draw " << i;
            EXPECT_EQ(u.decryptor->decrypt(hw), u.decryptor->decrypt(sw));
        }
    }
}

TEST(Differential, AddPlainBitExactAcrossRandomKeys)
{
    for (uint64_t key_seed : {15u, 35u}) {
        Universe u(key_seed, /*t=*/65537);
        for (uint64_t i = 0; i < 3; ++i) {
            const Plaintext plain = u.randomPlain(40 * key_seed + i);
            compiler::CircuitBuilder b;
            b.output(b.addPlain(b.input(), plain));
            const compiler::Circuit circuit = b.build();
            std::vector<Ciphertext> in = {
                u.encryptor->encrypt(u.randomPlain(50 * key_seed + i))};
            Ciphertext hw = u.runHwCircuit(circuit, in)[0];
            Ciphertext sw = in[0];
            u.evaluator->addPlainInPlace(sw, plain);
            EXPECT_EQ(hw, sw) << "key seed " << key_seed << " draw " << i;
            EXPECT_EQ(u.decryptor->decrypt(hw), u.decryptor->decrypt(sw));
        }
    }
}

TEST(Differential, MultPlainBitExactAcrossRandomKeys)
{
    for (uint64_t key_seed : {21u, 45u}) {
        Universe u(key_seed, /*t=*/65537);
        for (uint64_t i = 0; i < 2; ++i) {
            const Plaintext plain = u.randomPlain(60 * key_seed + i);
            compiler::CircuitBuilder b;
            b.output(b.multPlain(b.input(), plain));
            const compiler::Circuit circuit = b.build();
            std::vector<Ciphertext> in = {
                u.encryptor->encrypt(u.randomPlain(70 * key_seed + i))};
            Ciphertext hw = u.runHwCircuit(circuit, in)[0];
            Ciphertext sw = u.evaluator->multiplyPlain(in[0], plain);
            EXPECT_EQ(hw, sw) << "key seed " << key_seed << " draw " << i;
            EXPECT_EQ(u.decryptor->decrypt(hw), u.decryptor->decrypt(sw));
        }
    }
}

TEST(Differential, SquareBitExactAcrossRandomKeys)
{
    for (uint64_t key_seed : {25u, 55u}) {
        Universe u(key_seed);
        compiler::CircuitBuilder b;
        b.output(b.square(b.input()));
        const compiler::Circuit circuit = b.build();
        for (uint64_t i = 0; i < 2; ++i) {
            std::vector<Ciphertext> in = {
                u.encryptor->encrypt(u.randomPlain(80 * key_seed + i))};
            Ciphertext hw = u.runHwCircuit(circuit, in)[0];
            Ciphertext sw = u.evaluator->square(in[0], u.rlk);
            EXPECT_EQ(hw, sw) << "key seed " << key_seed << " draw " << i;
            EXPECT_EQ(u.decryptor->decrypt(hw), u.decryptor->decrypt(sw));
        }
    }
}

TEST(Differential, RotateBitExactAcrossRandomKeys)
{
    // A lone rotation (no hoist group) lowers to the unhoisted
    // automorphism + Galois key-switch schedule, which must reproduce
    // fv::Evaluator::rotateSlots bit for bit on the kAutomorph
    // datapath: permutation with WordDecomp digit broadcast, then the
    // per-element key loads through the relin machinery.
    for (uint64_t key_seed : {9u, 31u}) {
        Universe u(key_seed, /*t=*/65537);
        for (int steps : {1, -1, 3}) {
            compiler::CircuitBuilder b;
            b.output(b.rotate(b.input(), steps));
            const compiler::Circuit circuit = b.build();
            std::vector<Ciphertext> in = {u.encryptor->encrypt(
                u.randomPlain(1000 * key_seed + steps + 10))};
            Ciphertext hw = u.runHwCircuit(circuit, in)[0];
            Ciphertext sw =
                u.evaluator->rotateSlots(in[0], steps, u.gkeys);
            EXPECT_EQ(hw, sw)
                << "key seed " << key_seed << " steps " << steps;
            EXPECT_EQ(u.decryptor->decrypt(hw),
                      u.decryptor->decrypt(sw));
        }
    }
}

TEST(Differential, RotateColumnsBitExactAcrossRandomKeys)
{
    for (uint64_t key_seed : {12u, 28u}) {
        Universe u(key_seed, /*t=*/65537);
        compiler::CircuitBuilder b;
        b.output(b.rotateColumns(b.input()));
        const compiler::Circuit circuit = b.build();
        for (uint64_t i = 0; i < 2; ++i) {
            std::vector<Ciphertext> in = {u.encryptor->encrypt(
                u.randomPlain(1100 * key_seed + i))};
            Ciphertext hw = u.runHwCircuit(circuit, in)[0];
            Ciphertext sw = u.evaluator->rotateColumns(in[0], u.gkeys);
            EXPECT_EQ(hw, sw) << "key seed " << key_seed << " draw " << i;
            EXPECT_EQ(u.decryptor->decrypt(hw),
                      u.decryptor->decrypt(sw));
        }
    }
}

TEST(Differential, HoistedRotationsBitExactAcrossRandomKeys)
{
    // Two rotations of one ciphertext form a hoist group: both share
    // one key-switch decompose on the hardware and must match the
    // evaluator's hoisted reference bit for bit — and still decrypt to
    // the same plaintexts as the unhoisted rotations.
    for (uint64_t key_seed : {14u, 38u}) {
        Universe u(key_seed, /*t=*/65537);
        compiler::CircuitBuilder b;
        const auto x = b.input();
        b.output(b.rotate(x, 1));
        b.output(b.rotate(x, 2));
        const compiler::Circuit circuit = b.build();
        const size_t n = u.params->degree();
        std::vector<Ciphertext> in = {
            u.encryptor->encrypt(u.randomPlain(1200 * key_seed))};
        const std::vector<Ciphertext> hw =
            u.runHwCircuit(circuit, in);
        ASSERT_EQ(hw.size(), 2u);
        for (int steps : {1, 2}) {
            const Ciphertext sw = u.evaluator->applyGaloisHoisted(
                in[0], fv::galoisElementForStep(steps, n), u.gkeys);
            EXPECT_EQ(hw[steps - 1], sw)
                << "key seed " << key_seed << " steps " << steps;
            const Ciphertext unhoisted =
                u.evaluator->rotateSlots(in[0], steps, u.gkeys);
            EXPECT_EQ(u.decryptor->decrypt(hw[steps - 1]),
                      u.decryptor->decrypt(unhoisted));
        }
    }
}

TEST(Differential, RotateSumBitExactAcrossRandomKeys)
{
    for (uint64_t key_seed : {16u, 44u}) {
        Universe u(key_seed, /*t=*/65537);
        // A fresh generator (any sampler state) producing rotation
        // keys for the universe's secret: both paths use these keys.
        fv::KeyGenerator keygen(u.params, key_seed * 77 + 5);
        const fv::GaloisKeys rot_keys =
            keygen.generateRotationKeys(u.sk);
        compiler::CircuitBuilder b;
        b.output(b.rotateSum(b.input()));
        const compiler::Circuit circuit = b.build();
        std::vector<Ciphertext> in = {
            u.encryptor->encrypt(u.randomPlain(1300 * key_seed))};
        Ciphertext hw = u.runHwCircuit(circuit, in, &rot_keys)[0];
        Ciphertext sw = u.evaluator->sumAllSlots(in[0], rot_keys);
        EXPECT_EQ(hw, sw) << "key seed " << key_seed;
        EXPECT_EQ(u.decryptor->decrypt(hw), u.decryptor->decrypt(sw));
    }
}

TEST(Differential, EvaluateCircuitMatchesCompiledRotationCircuit)
{
    // The three execution paths of a mixed rotation workload — fused
    // compiled, per-op round trips, evaluateCircuit — agree bit for
    // bit (the hoist-numerics rule is shared by all of them).
    Universe u(52, /*t=*/65537);
    compiler::CircuitBuilder b;
    const auto x = b.input();
    const auto y = b.input();
    const auto r1 = b.rotate(x, 1);
    const auto r2 = b.rotate(x, 2);
    const auto s = b.add(b.mult(r1, y), r2);
    b.output(b.rotateColumns(s));
    const compiler::Circuit circuit = b.build();

    std::vector<Ciphertext> in = {
        u.encryptor->encrypt(u.randomPlain(71)),
        u.encryptor->encrypt(u.randomPlain(72))};
    const std::vector<Ciphertext> fused =
        u.runHwCircuit(circuit, in);
    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *u.evaluator, &u.rlk, circuit, in, &u.gkeys);
    hw::Coprocessor cp(u.params, u.config, &u.rlk, &u.gkeys);
    compiler::CircuitRunStats stats;
    const std::vector<Ciphertext> op_by_op =
        compiler::runCircuitOpByOp(cp, u.params, circuit, in, &stats);
    EXPECT_EQ(fused, reference);
    EXPECT_EQ(op_by_op, reference);
}

TEST(Differential, ModSwitchBitExactAcrossRandomKeys)
{
    // A lone modulus switch: the ScaleUnit's divide-and-round over the
    // dropped prime must reproduce fv::Evaluator::modSwitch bit for
    // bit, and the downloaded ciphertext must carry the new level.
    for (uint64_t key_seed : {18u, 36u}) {
        Universe u(key_seed, /*t=*/257);
        compiler::CircuitBuilder b;
        b.output(b.modSwitch(b.input()));
        const compiler::Circuit circuit = b.build();
        for (uint64_t i = 0; i < 3; ++i) {
            std::vector<Ciphertext> in = {
                u.encryptor->encrypt(u.randomPlain(1500 * key_seed + i))};
            Ciphertext hw = u.runHwCircuit(circuit, in)[0];
            Ciphertext sw = u.evaluator->modSwitch(in[0]);
            EXPECT_EQ(hw, sw) << "key seed " << key_seed << " draw " << i;
            EXPECT_EQ(hw.level, 1u);
            EXPECT_EQ(u.decryptor->decrypt(hw), u.decryptor->decrypt(sw));
        }
    }
}

TEST(Differential, MultModSwitchMultChainBitExact)
{
    // The level-transition composition the compiler's assignment pass
    // emits: multiply at level 0, drop, multiply again at level 1 —
    // fused, op-by-op, and the software evaluator must agree bit for
    // bit, including the output level.
    for (uint64_t key_seed : {23u, 47u}) {
        Universe u(key_seed);
        compiler::CircuitBuilder b;
        const auto x = b.input();
        const auto y = b.input();
        const auto z = b.input();
        const auto deep = b.modSwitch(b.mult(x, y));
        b.output(b.mult(deep, b.modSwitch(z)));
        const compiler::Circuit circuit = b.build();

        std::vector<Ciphertext> in = {
            u.encryptor->encrypt(u.randomPlain(1600 * key_seed)),
            u.encryptor->encrypt(u.randomPlain(1700 * key_seed)),
            u.encryptor->encrypt(u.randomPlain(1800 * key_seed))};
        const std::vector<Ciphertext> fused = u.runHwCircuit(circuit, in);
        const std::vector<Ciphertext> reference =
            compiler::evaluateCircuit(*u.evaluator, &u.rlk, circuit, in);
        hw::Coprocessor cp(u.params, u.config, &u.rlk, &u.gkeys);
        const std::vector<Ciphertext> op_by_op =
            compiler::runCircuitOpByOp(cp, u.params, circuit, in);
        EXPECT_EQ(fused, reference) << "key seed " << key_seed;
        EXPECT_EQ(op_by_op, reference) << "key seed " << key_seed;
        ASSERT_EQ(fused.size(), 1u);
        EXPECT_EQ(fused[0].level, 1u);
    }
}

TEST(Differential, ServiceModSwitchChainsAcrossWorkerCounts)
{
    // Compiled circuits carrying their own level drops, dispatched
    // through the serving layer at several worker counts: every result
    // must be bit-identical to the software evaluator on the same
    // circuit.
    Universe u(71);
    compiler::CircuitBuilder b;
    const auto x = b.input();
    const auto y = b.input();
    b.output(b.mult(b.modSwitch(b.mult(x, y)), b.modSwitch(y)));
    const compiler::Circuit circuit = b.build();

    compiler::CompilerOptions options;
    options.hw = u.config;
    const auto compiled =
        std::make_shared<const compiler::CompiledCircuit>(
            compiler::compileCircuit(u.params, circuit, options));

    for (size_t workers : {1u, 2u, 3u}) {
        service::ServiceConfig cfg;
        cfg.workers = workers;
        cfg.hw = u.config;
        service::ExecutionService svc(u.params, u.rlk, cfg);

        std::vector<std::future<std::vector<Ciphertext>>> futures;
        std::vector<std::vector<Ciphertext>> expected;
        for (uint64_t i = 0; i < 4; ++i) {
            std::vector<Ciphertext> in = {
                u.encryptor->encrypt(
                    u.randomPlain(2000 + 100 * workers + i)),
                u.encryptor->encrypt(
                    u.randomPlain(3000 + 100 * workers + i))};
            expected.push_back(compiler::evaluateCircuit(
                *u.evaluator, &u.rlk, circuit, in));
            futures.push_back(svc.submitCompiled(compiled, std::move(in)));
        }
        for (size_t i = 0; i < futures.size(); ++i) {
            const std::vector<Ciphertext> got = futures[i].get();
            EXPECT_EQ(got, expected[i])
                << "workers " << workers << " submission " << i;
            EXPECT_EQ(got[0].level, 1u);
        }
        svc.drain();
    }
}

TEST(Differential, ServiceMatchesEvaluatorUnderRandomLoad)
{
    // End-to-end through the serving layer: a mixed randomized Add/Mult
    // workload dispatched across two workers must be bit-identical to
    // the software evaluator, op by op.
    Universe u(67);
    service::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 3;
    cfg.hw = u.config;
    service::ExecutionService svc(u.params, u.rlk, cfg);

    std::vector<std::future<Ciphertext>> futures;
    std::vector<Ciphertext> expected;
    for (uint64_t i = 0; i < 8; ++i) {
        Ciphertext x = u.encryptor->encrypt(u.randomPlain(500 + i));
        Ciphertext y = u.encryptor->encrypt(u.randomPlain(600 + i));
        if (i % 2 == 0) {
            expected.push_back(u.evaluator->multiply(x, y, u.rlk));
            futures.push_back(svc.submit(service::Op::kMult,
                                         std::move(x), std::move(y)));
        } else {
            expected.push_back(u.evaluator->add(x, y));
            futures.push_back(svc.submit(service::Op::kAdd,
                                         std::move(x), std::move(y)));
        }
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        Ciphertext got = futures[i].get();
        EXPECT_EQ(got, expected[i]) << "op " << i;
        EXPECT_EQ(u.decryptor->decrypt(got),
                  u.decryptor->decrypt(expected[i]));
    }
}

/** @return the NTT and INTT instructions of @p compiled. */
size_t
transformCount(const compiler::CompiledCircuit &compiled)
{
    size_t count = 0;
    for (const compiler::Segment &seg : compiled.segments)
        for (const hw::Instruction &instr : seg.program.instrs)
            count += instr.op == hw::Opcode::kNtt ||
                     instr.op == hw::Opcode::kIntt;
    return count;
}

/**
 * The transforms of the all-natural fused lowering of @p compiled's
 * circuit: its op-by-op lowering's (the same per-node schedules, every
 * rotation decomposing alone), less the digit transforms a hoist group
 * shares when @p hoist is on.
 */
size_t
allNaturalTransforms(const Universe &u,
                     const compiler::CompiledCircuit &compiled, bool hoist)
{
    const compiler::Circuit &circuit = compiled.circuit;
    size_t count = transformCount(
        compiler::compileCircuitOpByOp(u.params, circuit, u.config));
    if (!hoist)
        return count;
    const std::vector<uint32_t> sizes =
        compiler::rotationHoistGroupSizes(circuit);
    std::map<compiler::ValueId, size_t> key_switching;
    for (size_t i = 0; i < circuit.nodes.size(); ++i) {
        const compiler::CircuitNode &node = circuit.nodes[i];
        if (compiler::isRotationNode(node.kind) && sizes[i] >= 2 &&
            compiler::rotationElement(node, u.params->degree()) != 1)
            ++key_switching[node.args[0]];
    }
    for (const auto &[x, rotations] : key_switching)
        count -= (rotations - 1) *
                 u.params->qPrimeCount(compiled.value_levels[x]);
    return count;
}

/** A seeded random DAG over the linear ops, rotations, Mult, Square
 *  and (odd seeds) ModSwitch, with shared subexpressions and several
 *  outputs. */
compiler::Circuit
randomLinearCircuit(const Universe &u, uint64_t seed)
{
    Xoshiro256 rng(seed);
    compiler::CircuitBuilder b;
    std::vector<compiler::ValueId> vals;
    std::vector<size_t> levels;
    const uint64_t inputs = 1 + rng.uniformBelow(3);
    for (uint64_t k = 0; k < inputs; ++k) {
        vals.push_back(b.input());
        levels.push_back(0);
    }
    // Half the picks come from the newest values (long chains), half
    // from all of them (shared subexpressions).
    const auto pick = [&]() -> size_t {
        if (rng.uniformBelow(2) == 0)
            return vals.size() - 1 -
                   rng.uniformBelow(std::min<size_t>(4, vals.size()));
        return rng.uniformBelow(vals.size());
    };
    const auto partner = [&](size_t a) {
        std::vector<size_t> same;
        for (size_t k = 0; k < vals.size(); ++k)
            if (levels[k] == levels[a])
                same.push_back(k);
        return vals[same[rng.uniformBelow(same.size())]];
    };
    constexpr int32_t kSteps[] = {1, -1, 2, 3};
    size_t mults = 0;
    for (uint64_t k = 0, nodes = 8 + rng.uniformBelow(14); k < nodes;
         ++k) {
        const size_t a = pick();
        const compiler::ValueId x = vals[a];
        size_t level = levels[a];
        compiler::ValueId v = compiler::kNoValue;
        switch (rng.uniformBelow(16)) {
          case 0:
          case 1:
          case 2:
            v = b.add(x, partner(a));
            break;
          case 3:
          case 4:
            v = b.sub(x, partner(a));
            break;
          case 5:
            v = b.negate(x);
            break;
          case 6:
          case 7:
            v = b.addPlain(x, u.randomPlain(rng.next()));
            break;
          case 11:
          case 12:
            v = b.rotate(x, kSteps[rng.uniformBelow(4)]);
            break;
          case 13:
            v = b.rotateColumns(x);
            break;
          case 14:
            if (mults < 2) {
                ++mults;
                v = rng.uniformBelow(2) == 0 ? b.mult(x, partner(a))
                                             : b.square(x);
                break;
            }
            [[fallthrough]];
          case 15:
            if (seed % 2 == 1 && level < u.params->maxLevel()) {
                ++level;
                v = b.modSwitch(x);
                break;
            }
            [[fallthrough]];
          default:
            v = b.multPlain(x, u.randomPlain(rng.next()));
            break;
        }
        vals.push_back(v);
        levels.push_back(level);
    }
    // The last value, then up to two more, bare inputs included.
    std::vector<compiler::ValueId> outputs = {vals.back()};
    for (uint64_t k = 0, more = rng.uniformBelow(3); k < more; ++k) {
        const compiler::ValueId v = vals[rng.uniformBelow(vals.size())];
        if (std::find(outputs.begin(), outputs.end(), v) == outputs.end())
            outputs.push_back(v);
    }
    for (compiler::ValueId v : outputs)
        b.output(v);
    return b.build();
}

TEST(Differential, RandomLinearCircuitsMatchEveryLowering)
{
    // Fused lowerings keep linear ops in the NTT domain and transform
    // only where a consumer needs natural layout. Over seeded random
    // DAGs — hoisting and automatic mod-switching each on and off,
    // memory files from the tightest that compiles to 84 slots, so
    // NTT-domain values spill and reload — every lowering must match
    // evaluateCircuit bit for bit, verify clean under kReject, and
    // transform no more than the all-natural lowering. A sample also
    // goes through the service under its default policy.
    Universe u(91);
    constexpr uint64_t kCircuits = 40;
    size_t ntt_reloads = 0;
    size_t ntt_values = 0;
    size_t bare_outputs = 0;
    size_t squares = 0;
    struct Served
    {
        std::shared_ptr<const compiler::CompiledCircuit> compiled;
        std::vector<Ciphertext> inputs;
        std::vector<Ciphertext> reference;
    };
    std::vector<Served> served;
    for (uint64_t seed = 0; seed < kCircuits; ++seed) {
        SCOPED_TRACE("circuit seed " + std::to_string(seed));
        const compiler::Circuit circuit = randomLinearCircuit(u, seed);
        for (compiler::ValueId v : circuit.outputs)
            bare_outputs += std::find(circuit.inputs.begin(),
                                      circuit.inputs.end(),
                                      v) != circuit.inputs.end();
        for (const compiler::CircuitNode &node : circuit.nodes)
            squares += node.kind == compiler::NodeKind::kSquare;
        std::vector<Ciphertext> inputs;
        for (size_t k = 0; k < circuit.inputs.size(); ++k)
            inputs.push_back(
                u.encryptor->encrypt(u.randomPlain(1000 * seed + k)));
        hw::Coprocessor cp(u.params, u.config, &u.rlk, &u.gkeys);
        EXPECT_EQ(compiler::runCircuitOpByOp(cp, u.params, circuit, inputs),
                  compiler::evaluateCircuit(*u.evaluator, &u.rlk, circuit,
                                            inputs, &u.gkeys))
            << "op by op";
        if (seed % 7 == 0) {
            compiler::CompilerOptions options;
            options.hw = u.config;
            Served &s = served.emplace_back();
            s.compiled = std::make_shared<const compiler::CompiledCircuit>(
                compiler::compileCircuit(u.params, circuit, options));
            s.inputs = inputs;
            s.reference = compiler::evaluateCircuit(
                *u.evaluator, &u.rlk, circuit, inputs, &u.gkeys);
        }

        // Automatic level assignment plans circuits without explicit
        // mod-switches (noise_pass.h), the even seeds.
        const bool flat = seed % 2 == 0;
        for (const bool hoist : {true, false}) {
            for (const bool auto_ms : {false, true}) {
                if (auto_ms && !flat)
                    continue;
                SCOPED_TRACE(std::string("hoist ") + (hoist ? "on" : "off") +
                             ", auto_mod_switch " + (auto_ms ? "on" : "off"));
                compiler::CompilerOptions options;
                options.hw = u.config;
                options.hoist_rotations = hoist;
                options.auto_mod_switch = auto_ms;
                options.noise_check = compiler::NoiseCheck::kOff;
                // 84 slots down to the tightest file that compiles.
                std::vector<compiler::CompiledCircuit> lowered;
                for (size_t per_rpau = 84 / u.config.n_rpaus; per_rpau > 0;
                     --per_rpau) {
                    options.hw.slots_per_rpau = per_rpau;
                    try {
                        lowered.push_back(compiler::compileCircuit(
                            u.params, circuit, options));
                    } catch (const FatalError &e) {
                        ASSERT_NE(std::string(e.what()).find("does not fit"),
                                  std::string::npos)
                            << e.what();
                        break;
                    }
                }
                ASSERT_FALSE(lowered.empty());
                const size_t natural =
                    allNaturalTransforms(u, lowered.front(), hoist);
                const std::vector<Ciphertext> reference =
                    compiler::evaluateCircuit(*u.evaluator, &u.rlk,
                                              lowered.front().circuit,
                                              inputs, &u.gkeys);
                for (size_t k : {size_t(0), lowered.size() / 2,
                                 lowered.size() - 1}) {
                    const compiler::CompiledCircuit &compiled = lowered[k];
                    SCOPED_TRACE("capacity " +
                                 std::to_string(compiled.hw.n_rpaus *
                                                compiled.hw.slots_per_rpau));
                    EXPECT_TRUE(verify::verifyCompiledCircuit(compiled).ok());
                    EXPECT_LE(transformCount(compiled), natural);
                    hw::Coprocessor run(u.params, compiled.hw, &u.rlk,
                                        &u.gkeys);
                    EXPECT_EQ(compiler::runCompiledCircuit(run, compiled,
                                                           inputs),
                              reference);
                    for (const compiler::Segment &seg : compiled.segments)
                        for (const compiler::Transfer &t : seg.uploads)
                            ntt_reloads +=
                                t.source ==
                                    compiler::Transfer::Source::kValue &&
                                t.layout == hw::Layout::kNttDomain;
                    ntt_values += transformCount(compiled) < natural;
                }
            }
        }
    }
    // Through admission on 1 and 3 workers, under a default config:
    // nothing refused, outputs bit-exact, and the modeled cycles are
    // each job's static cold price.
    for (const size_t workers : {1u, 3u}) {
        SCOPED_TRACE("service workers " + std::to_string(workers));
        service::ServiceConfig cfg;
        cfg.workers = workers;
        cfg.hw = u.config;
        service::ExecutionService svc(u.params, u.rlk, u.gkeys, cfg);
        constexpr size_t kRepeats = 2;
        std::vector<std::future<std::vector<Ciphertext>>> futures;
        hw::Cycle priced = 0;
        for (const Served &s : served) {
            for (size_t r = 0; r < kRepeats; ++r)
                futures.push_back(svc.submitCompiled(s.compiled, s.inputs));
            priced += kRepeats * compiler::attributeCompiledCircuit(
                                     *s.compiled)
                                     .cold.totals.fpga_cycles;
        }
        for (size_t i = 0; i < futures.size(); ++i)
            EXPECT_EQ(futures[i].get(), served[i / kRepeats].reference)
                << "submission " << i;
        svc.drain();
        const service::ServiceStats st = svc.stats();
        EXPECT_EQ(st.verify_rejected + st.admission_rejected, 0u);
        EXPECT_EQ(st.circuits_verified, served.size());
        EXPECT_EQ(st.circuits_completed, futures.size());
        EXPECT_EQ(st.fpga_cycles, priced);
    }
    // The cases exercise what they are for: NTT-domain values that
    // save transforms, NTT-domain spills that reload, outputs that are
    // bare inputs, and squares.
    EXPECT_GT(ntt_values, 0u);
    EXPECT_GT(ntt_reloads, 0u);
    EXPECT_GT(bare_outputs, 0u);
    EXPECT_GT(squares, 0u);
}

} // namespace
} // namespace heat
