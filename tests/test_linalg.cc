/**
 * @file
 * heat::linalg — batched encrypted linear algebra on the hardware
 * automorphism datapath: replicated slot packing, rotation round
 * trips, total sums, diagonal-method matrix-vector products through
 * the serving layer, and the hoisting guarantee (multiple rotations of
 * one ciphertext share a single key-switch decompose).
 */

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

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
#include "linalg/linalg.h"
#include "service/service.h"

namespace heat {
namespace {

using compiler::Circuit;
using compiler::CircuitBuilder;
using fv::Ciphertext;
using fv::Plaintext;

/** Batching-capable universe over a small ring. */
struct Universe
{
    explicit Universe(uint64_t seed, size_t degree = 256)
    {
        fv::FvConfig cfg;
        cfg.degree = degree;
        cfg.plain_modulus = 65537; // 1 mod 2n for every n <= 2^15
        cfg.sigma = 3.2;
        cfg.q_prime_count = 3;
        params = fv::FvParams::create(cfg);
        keygen = std::make_unique<fv::KeyGenerator>(params, seed);
        sk = keygen->generateSecretKey();
        pk = keygen->generatePublicKey(sk);
        rlk = keygen->generateRelinKeys(sk);
        encryptor =
            std::make_unique<fv::Encryptor>(params, pk, seed ^ 0xBEEF);
        decryptor = std::make_unique<fv::Decryptor>(
            params, fv::SecretKey{sk.s_ntt});
        encoder = std::make_unique<fv::BatchEncoder>(params);
        config = hw::HwConfig::paper();
        config.n_rpaus = (params->fullBase()->size() + 1) / 2;
    }

    fv::GaloisKeys
    keysFor(const std::vector<uint32_t> &elements) const
    {
        return keygen->generateGaloisKeys(sk, elements);
    }

    std::vector<uint64_t>
    randomSlots(uint64_t seed, size_t count) const
    {
        Xoshiro256 rng(seed);
        std::vector<uint64_t> v(count);
        for (auto &x : v)
            x = rng.uniformBelow(params->plainModulus());
        return v;
    }

    service::ServiceConfig
    serviceConfig(size_t workers) const
    {
        service::ServiceConfig cfg;
        cfg.workers = workers;
        cfg.hw = config;
        return cfg;
    }

    std::shared_ptr<const fv::FvParams> params;
    std::unique_ptr<fv::KeyGenerator> keygen;
    fv::SecretKey sk;
    fv::PublicKey pk;
    fv::RelinKeys rlk;
    std::unique_ptr<fv::Encryptor> encryptor;
    std::unique_ptr<fv::Decryptor> decryptor;
    std::unique_ptr<fv::BatchEncoder> encoder;
    hw::HwConfig config;
};

TEST(LinalgEncoding, RotationLayoutIsConsistentWithRotateByOne)
{
    // col(perm_1[s]) == col(s) + 1: a rotation by one advances every
    // slot's column coordinate by exactly one within its row.
    Universe u(3);
    const linalg::RotationLayout layout(*u.encoder);
    const size_t n = u.encoder->slotCount();
    ASSERT_EQ(layout.columns(), n / 2);
    const std::vector<size_t> perm = u.encoder->slotPermutation(
        fv::galoisElementForStep(1, n));
    for (size_t s = 0; s < n; ++s)
        EXPECT_EQ(layout.column(perm[s]),
                  (layout.column(s) + 1) % layout.columns());
    for (size_t c = 0; c < layout.columns(); ++c)
        EXPECT_EQ(layout.column(layout.slotAt(c)), c);
}

TEST(LinalgEncoding, ReplicatedPackingRoundTrips)
{
    Universe u(5);
    const linalg::RotationLayout layout(*u.encoder);
    const std::vector<uint64_t> v = u.randomSlots(7, 8);
    const std::vector<uint64_t> slots = layout.replicate(v);
    ASSERT_EQ(slots.size(), u.encoder->slotCount());
    for (size_t s = 0; s < slots.size(); ++s)
        EXPECT_EQ(slots[s], v[layout.column(s) % v.size()])
            << "slot " << s;
}

TEST(LinalgEncoding, ReplicateRejectsNonDivisorLengths)
{
    // Regression: replicate() used to wrap any short vector with
    // values[col % size], silently producing an uneven seam for
    // lengths that do not divide the row — exactly the caller size
    // mismatch the diagonal method's alignment property cannot absorb.
    Universe u(6);
    const linalg::RotationLayout layout(*u.encoder);
    ASSERT_NE(layout.columns() % 3, 0u);
    ASSERT_NE(layout.columns() % 24, 0u);
    EXPECT_THROW(layout.replicate(u.randomSlots(9, 3)), FatalError);
    EXPECT_THROW(layout.replicate(u.randomSlots(9, 24)), FatalError);
    EXPECT_THROW(layout.replicate(std::vector<uint64_t>{}), FatalError);
    EXPECT_NO_THROW(layout.replicate(u.randomSlots(9, 4)));
    EXPECT_NO_THROW(layout.replicate(u.randomSlots(9, 128)));
}

TEST(LinalgRotate, RotateThenInverseIsIdentityOnHardware)
{
    Universe u(11);
    for (int steps : {1, 3, 7}) {
        CircuitBuilder b;
        const auto in = b.input();
        b.output(b.rotate(b.rotate(in, steps), -steps));
        const Circuit circuit = b.build();

        const fv::GaloisKeys gkeys = u.keysFor(
            compiler::requiredGaloisElements(circuit,
                                             u.params->degree()));
        compiler::CompilerOptions options;
        options.hw = u.config;
        const compiler::CompiledCircuit compiled =
            compiler::compileCircuit(u.params, circuit, options);

        const std::vector<uint64_t> v =
            u.randomSlots(100 + steps, u.encoder->slotCount());
        std::vector<Ciphertext> inputs = {
            u.encryptor->encrypt(u.encoder->encode(v))};
        hw::Coprocessor cp(u.params, u.config, &u.rlk, &gkeys);
        const std::vector<Ciphertext> out =
            compiler::runCompiledCircuit(cp, compiled, inputs);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(u.encoder->decode(u.decryptor->decrypt(out[0])), v)
            << "steps " << steps;
    }
}

TEST(LinalgTotalSum, EverySlotHoldsTheSum)
{
    Universe u(17);
    const Circuit circuit = linalg::totalSumCircuit();
    const fv::GaloisKeys gkeys = u.keysFor(
        compiler::requiredGaloisElements(circuit, u.params->degree()));

    const std::vector<uint64_t> v =
        u.randomSlots(23, u.encoder->slotCount());
    uint64_t expected = 0;
    for (uint64_t x : v)
        expected = (expected + x) % u.params->plainModulus();

    service::ExecutionService svc(u.params, u.rlk, gkeys,
                                  u.serviceConfig(1));
    auto future = svc.submitCircuit(
        circuit, {u.encryptor->encrypt(u.encoder->encode(v))});
    const std::vector<uint64_t> slots =
        u.encoder->decode(u.decryptor->decrypt(future.get()[0]));
    for (size_t s = 0; s < slots.size(); s += 37)
        EXPECT_EQ(slots[s], expected) << "slot " << s;
    EXPECT_EQ(slots.back(), expected);
}

TEST(LinalgInnerProduct, MatchesPlaintextReference)
{
    Universe u(29);
    linalg::InnerProduct ip(u.params);
    const fv::GaloisKeys gkeys =
        u.keysFor(ip.requiredGaloisElements());
    service::ExecutionService svc(u.params, u.rlk, gkeys,
                                  u.serviceConfig(2));

    for (uint64_t draw = 0; draw < 2; ++draw) {
        const std::vector<uint64_t> a = u.randomSlots(40 + draw, 50);
        const std::vector<uint64_t> b = u.randomSlots(60 + draw, 50);
        auto future = svc.submitCompiled(
            ip.compile([&] {
                compiler::CompilerOptions o;
                o.hw = u.config;
                return o;
            }()),
            {u.encryptor->encrypt(ip.encodeVector(a)),
             u.encryptor->encrypt(ip.encodeVector(b))});
        const uint64_t got =
            ip.decodeResult(u.decryptor->decrypt(future.get()[0]));
        EXPECT_EQ(got, ip.reference(a, b)) << "draw " << draw;
    }
}

TEST(LinalgMatVec, DiagonalMethodMatchesReferenceThroughService)
{
    Universe u(31);
    const size_t d = 8;
    std::vector<std::vector<uint64_t>> m(d);
    for (size_t r = 0; r < d; ++r)
        m[r] = u.randomSlots(70 + r, d);
    linalg::MatVec mv(u.params, m);
    const fv::GaloisKeys gkeys =
        u.keysFor(mv.requiredGaloisElements());
    service::ExecutionService svc(u.params, u.rlk, gkeys,
                                  u.serviceConfig(2));

    // Compile once, submit many.
    for (uint64_t draw = 0; draw < 3; ++draw) {
        const std::vector<uint64_t> v = u.randomSlots(90 + draw, d);
        auto future = svc.submitCompiled(
            mv.compile([&] {
                compiler::CompilerOptions o;
                o.hw = u.config;
                return o;
            }()),
            {u.encryptor->encrypt(mv.encodeVector(v))});
        const std::vector<uint64_t> got =
            mv.decodeResult(u.decryptor->decrypt(future.get()[0]));
        EXPECT_EQ(got, mv.reference(v)) << "draw " << draw;
    }
}

TEST(LinalgMatVec, SixteenBySixteen)
{
    Universe u(37);
    const size_t d = 16;
    std::vector<std::vector<uint64_t>> m(d);
    for (size_t r = 0; r < d; ++r)
        m[r] = u.randomSlots(200 + r, d);
    linalg::MatVec mv(u.params, m);
    const fv::GaloisKeys gkeys =
        u.keysFor(mv.requiredGaloisElements());

    compiler::CompilerOptions options;
    options.hw = u.config;
    const std::vector<uint64_t> v = u.randomSlots(333, d);
    hw::Coprocessor cp(u.params, u.config, &u.rlk, &gkeys);
    std::vector<Ciphertext> inputs = {
        u.encryptor->encrypt(mv.encodeVector(v))};
    const std::vector<Ciphertext> out = compiler::runCompiledCircuit(
        cp, *mv.compile(options), inputs);
    EXPECT_EQ(mv.decodeResult(u.decryptor->decrypt(out[0])),
              mv.reference(v));
}

TEST(LinalgMatVec, PaperSetRunBindsAboutTheModeledSlots)
{
    // The paper set at t = 65537 spills the hoisted 16x16 matvec over
    // 16 segments. Each binds a record just before its first touch and
    // returns it right after its last, so the residues bound at once
    // stay near the slot log's peak.
    const auto params = fv::FvParams::paper(65537);
    fv::KeyGenerator keygen(params, 41);
    const fv::SecretKey sk = keygen.generateSecretKey();
    const fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor encryptor(params, keygen.generatePublicKey(sk), 42);
    const fv::BatchEncoder encoder(params);
    Xoshiro256 rng(43);
    const size_t d = 16;
    std::vector<std::vector<uint64_t>> m(d, std::vector<uint64_t>(d));
    for (auto &row : m)
        for (uint64_t &x : row)
            x = rng.uniformBelow(params->plainModulus());
    linalg::MatVec mv(params, m);
    const fv::GaloisKeys gkeys =
        keygen.generateGaloisKeys(sk, mv.requiredGaloisElements());
    compiler::CompilerOptions options;
    options.hw = hw::HwConfig::paper();
    const auto compiled = mv.compile(options);
    ASSERT_GT(compiled->segments.size(), 1u);

    std::vector<uint64_t> v(d);
    for (uint64_t &x : v)
        x = rng.uniformBelow(params->plainModulus());
    const std::vector<Ciphertext> inputs = {
        encryptor.encrypt(mv.encodeVector(v))};
    hw::Coprocessor cp(params, options.hw, &rlk, &gkeys);
    const std::vector<Ciphertext> out =
        compiler::runCompiledCircuit(cp, *compiled, inputs);
    fv::Decryptor decryptor(params, fv::SecretKey{sk.s_ntt});
    EXPECT_EQ(mv.decodeResult(decryptor.decrypt(out[0])), mv.reference(v));
    EXPECT_LE(cp.memory().peakBoundResidues(), 2 * compiled->peak_slots);
}

/** Count instructions of @p op across all segments. */
size_t
countOps(const compiler::CompiledCircuit &compiled, hw::Opcode op,
         bool with_digits)
{
    size_t count = 0;
    for (const auto &seg : compiled.segments) {
        for (const auto &instr : seg.program.instrs) {
            if (instr.op == op &&
                (!with_digits || !instr.extra.empty()))
                ++count;
        }
    }
    return count;
}

TEST(LinalgHoisting, RotationsOfOneCiphertextShareTheDecompose)
{
    Universe u(41);
    const size_t d = 8;
    std::vector<std::vector<uint64_t>> m(d);
    for (size_t r = 0; r < d; ++r)
        m[r] = u.randomSlots(300 + r, d);
    linalg::MatVec mv(u.params, m);

    compiler::CompilerOptions hoisted;
    hoisted.hw = u.config;
    compiler::CompilerOptions unhoisted;
    unhoisted.hw = u.config;
    unhoisted.hoist_rotations = false;

    const compiler::CompiledCircuit with =
        compiler::compileCircuit(u.params, mv.circuit(), hoisted);
    const compiler::CompiledCircuit without =
        compiler::compileCircuit(u.params, mv.circuit(), unhoisted);

    // One shared decompose (an automorph with digit broadcasts) for
    // all d-1 rotations, against one per rotation without hoisting —
    // and correspondingly fewer forward NTTs.
    EXPECT_EQ(countOps(with, hw::Opcode::kAutomorph, true), 1u);
    EXPECT_EQ(countOps(without, hw::Opcode::kAutomorph, true), d - 1);
    EXPECT_LT(countOps(with, hw::Opcode::kNtt, false),
              countOps(without, hw::Opcode::kNtt, false));
    EXPECT_LT(with.instructionCount(), without.instructionCount());

    // Scheduling only: the two lowerings are bit-identical.
    const fv::GaloisKeys gkeys =
        u.keysFor(mv.requiredGaloisElements());
    const std::vector<uint64_t> v = u.randomSlots(555, d);
    std::vector<Ciphertext> inputs = {
        u.encryptor->encrypt(mv.encodeVector(v))};
    hw::Coprocessor cp(u.params, u.config, &u.rlk, &gkeys);
    const std::vector<Ciphertext> a =
        compiler::runCompiledCircuit(cp, with, inputs);
    const std::vector<Ciphertext> b =
        compiler::runCompiledCircuit(cp, without, inputs);
    EXPECT_EQ(a, b);
    EXPECT_EQ(mv.decodeResult(u.decryptor->decrypt(a[0])),
              mv.reference(v));
}

TEST(LinalgService, DeterministicAcrossWorkerCounts)
{
    Universe u(43);
    const size_t d = 8;
    std::vector<std::vector<uint64_t>> m(d);
    for (size_t r = 0; r < d; ++r)
        m[r] = u.randomSlots(400 + r, d);
    linalg::MatVec mv(u.params, m);
    const fv::GaloisKeys gkeys =
        u.keysFor(mv.requiredGaloisElements());

    compiler::CompilerOptions options;
    options.hw = u.config;
    const auto compiled = mv.compile(options);

    std::vector<Ciphertext> jobs;
    for (uint64_t i = 0; i < 6; ++i)
        jobs.push_back(u.encryptor->encrypt(
            mv.encodeVector(u.randomSlots(600 + i, d))));

    std::vector<std::vector<Ciphertext>> per_worker_count;
    for (size_t workers : {1u, 2u, 4u}) {
        service::ExecutionService svc(u.params, u.rlk, gkeys,
                                      u.serviceConfig(workers));
        std::vector<std::future<std::vector<Ciphertext>>> futures;
        for (const Ciphertext &job : jobs)
            futures.push_back(svc.submitCompiled(compiled, {job}));
        std::vector<Ciphertext> results;
        for (auto &f : futures)
            results.push_back(f.get()[0]);
        per_worker_count.push_back(std::move(results));
    }
    EXPECT_EQ(per_worker_count[0], per_worker_count[1]);
    EXPECT_EQ(per_worker_count[0], per_worker_count[2]);
}

TEST(LinalgService, MissingGaloisKeysAreRejectedSynchronously)
{
    Universe u(47);
    const Circuit circuit = linalg::totalSumCircuit();
    // No Galois keys at all: the legacy two-key constructor.
    service::ExecutionService svc(u.params, u.rlk,
                                  u.serviceConfig(1));
    const std::vector<uint64_t> v = u.randomSlots(1, 4);
    EXPECT_THROW(
        svc.submitCircuit(
            circuit, {u.encryptor->encrypt(u.encoder->encode(v))}),
        FatalError);
}

} // namespace
} // namespace heat
