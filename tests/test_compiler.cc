/**
 * @file
 * Circuit-compiler suite: fused whole-circuit programs must be
 * bit-identical to fv::Evaluator run op-by-op (and to the unfused
 * hardware baseline), slot liveness must let deep circuits reuse dead
 * slots, the spill path must stay correct under artificially tight
 * memory files, modeled fused time must beat the per-op round-trip
 * model, and results must be deterministic across service worker
 * counts.
 */

#include <gtest/gtest.h>

#include <future>
#include <memory>
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
#include "verify_support.h"

namespace heat {
namespace {

using compiler::Circuit;
using compiler::CircuitBuilder;
using compiler::CircuitRunStats;
using compiler::CompiledCircuit;
using compiler::CompilerOptions;
using compiler::ValueId;
using fv::Ciphertext;
using fv::Plaintext;

/** One randomized key/encryptor universe over a small ring. */
struct Universe
{
    explicit Universe(uint64_t seed, uint64_t t = 257,
                      size_t degree = 256, size_t q_primes = 3)
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
        encryptor =
            std::make_unique<fv::Encryptor>(params, pk, seed ^ 0xABCD);
        decryptor = std::make_unique<fv::Decryptor>(
            params, fv::SecretKey{sk.s_ntt});
        evaluator = std::make_unique<fv::Evaluator>(
            params, fv::ArithPath::kHps);
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

    Ciphertext
    randomCipher(uint64_t seed) const
    {
        return encryptor->encrypt(randomPlain(seed));
    }

    std::shared_ptr<const fv::FvParams> params;
    fv::SecretKey sk;
    fv::PublicKey pk;
    fv::RelinKeys rlk;
    std::unique_ptr<fv::Encryptor> encryptor;
    std::unique_ptr<fv::Decryptor> decryptor;
    std::unique_ptr<fv::Evaluator> evaluator;
    hw::HwConfig config;
};

/**
 * The mixed depth-4 demo circuit of the acceptance criteria:
 * Add/Sub/MultPlain/Mult/Square plus relinearizations, two inputs.
 *
 *   v1 = relin(x * y)          depth 1
 *   v2 = relin(v1^2)           depth 2
 *   v3 = v2 * plain            depth 3
 *   v4 = v3 - x                depth 4
 *   v5 = (v4 + y) + Delta*p2   depth 4 (+plain)
 * outputs: v5, v1
 */
Circuit
demoCircuit(const Universe &u)
{
    CircuitBuilder b;
    const ValueId x = b.input();
    const ValueId y = b.input();
    const ValueId v1 = b.mult(x, y);
    const ValueId v2 = b.square(v1);
    const ValueId v3 = b.multPlain(v2, u.randomPlain(901));
    const ValueId v4 = b.sub(v3, x);
    const ValueId v5 =
        b.addPlain(b.add(v4, y), u.randomPlain(902));
    b.output(v5);
    b.output(v1);
    return b.build();
}

TEST(Compiler, FusedMatchesEvaluatorAndOpByOp)
{
    Universe u(11);
    const Circuit circuit = demoCircuit(u);
    std::vector<Ciphertext> inputs = {u.randomCipher(1),
                                      u.randomCipher(2)};

    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *u.evaluator, &u.rlk, circuit, inputs);

    CompilerOptions options;
    options.hw = u.config;
    const CompiledCircuit compiled =
        compiler::compileCircuit(u.params, circuit, options);
    EXPECT_LE(compiled.peak_slots, compiled.hw.n_rpaus *
                                       compiled.hw.slots_per_rpau);

    hw::Coprocessor cp(u.params, u.config, &u.rlk);
    CircuitRunStats fused_stats;
    const std::vector<Ciphertext> fused = compiler::runCompiledCircuit(
        cp, compiled, inputs, &fused_stats);

    hw::Coprocessor cp2(u.params, u.config, &u.rlk);
    CircuitRunStats unfused_stats;
    const std::vector<Ciphertext> unfused = compiler::runCircuitOpByOp(
        cp2, u.params, circuit, inputs, &unfused_stats);

    ASSERT_EQ(fused.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(fused[i], reference[i]) << "output " << i;
        EXPECT_EQ(unfused[i], reference[i]) << "output " << i;
        EXPECT_EQ(u.decryptor->decrypt(fused[i]),
                  u.decryptor->decrypt(reference[i]));
    }

    // No spills: the whole circuit fused into one segment, one Arm
    // dispatch, inputs uploaded once and only live outputs downloaded.
    EXPECT_EQ(compiled.spilled_polys, 0u);
    EXPECT_EQ(compiled.segments.size(), 1u);
    EXPECT_EQ(fused_stats.dispatches, 1u);
    EXPECT_EQ(fused_stats.uploaded_polys,
              2 * inputs.size() + compiled.constants.size() +
                  compiled.reloaded_polys);
    EXPECT_EQ(fused_stats.downloaded_polys, 2u + 2u);

    // Same kernels, one dispatch instead of one per instruction and
    // far fewer transfers: the fused model must be strictly faster
    // than per-op round trips.
    EXPECT_LT(fused_stats.modeledUs(u.config),
              unfused_stats.modeledUs(u.config));
}

TEST(Compiler, SlotReuseAllowsDeepCircuits)
{
    Universe u(23);
    // A long chain where every step allocates fresh result slots (the
    // accumulator is used twice per round, so it cannot be consumed in
    // place): without liveness-based reuse the allocation total far
    // exceeds the memory file even though only a couple of values are
    // ever live at once.
    CircuitBuilder b;
    const ValueId x = b.input();
    const ValueId y = b.input();
    ValueId acc = b.add(x, y);
    for (int i = 0; i < 20; ++i) {
        const ValueId t = b.add(acc, i % 2 == 0 ? x : y);
        acc = b.sub(t, acc);
    }
    b.output(acc);
    const Circuit circuit = b.build();

    CompilerOptions options;
    options.hw = u.config;
    const CompiledCircuit compiled =
        compiler::compileCircuit(u.params, circuit, options);

    const size_t kq = u.params->qBase()->size();
    // Total allocations across the chain dwarf the capacity…
    size_t allocated = 0;
    for (const hw::SlotAction &action : compiled.slot_actions) {
        if (action.kind == hw::SlotAction::Kind::kAllocate)
            allocated += action.base == hw::BaseTag::kQ
                             ? kq
                             : u.params->fullBase()->size();
    }
    EXPECT_GT(allocated, compiled.hw.n_rpaus *
                             compiled.hw.slots_per_rpau);
    // …but the live peak stays tiny and nothing spills.
    EXPECT_EQ(compiled.spilled_polys, 0u);
    EXPECT_EQ(compiled.segments.size(), 1u);
    EXPECT_LE(compiled.peak_slots, 8 * kq);

    std::vector<Ciphertext> inputs = {u.randomCipher(5),
                                      u.randomCipher(6)};
    hw::Coprocessor cp(u.params, u.config, &u.rlk);
    const std::vector<Ciphertext> fused =
        compiler::runCompiledCircuit(cp, compiled, inputs);
    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *u.evaluator, &u.rlk, circuit, inputs);
    EXPECT_EQ(fused[0], reference[0]);
}

/** A circuit holding many values live at once (forces pressure when
 *  the memory file shrinks). */
Circuit
wideCircuit(int width)
{
    CircuitBuilder b;
    std::vector<ValueId> leaves;
    const ValueId x = b.input();
    const ValueId y = b.input();
    ValueId rolling = b.add(x, y);
    for (int i = 0; i < width; ++i) {
        rolling = b.add(rolling, i % 2 == 0 ? x : y);
        leaves.push_back(rolling);
    }
    // Consume the leaves in reverse so all of them stay live across
    // the whole build-up phase.
    ValueId acc = b.negate(leaves.back());
    for (int i = width - 1; i >= 0; --i)
        acc = b.add(acc, leaves[i]);
    b.output(acc);
    return b.build();
}

TEST(Compiler, SpillPathStaysBitExact)
{
    Universe u(31);
    const Circuit circuit = wideCircuit(4);
    std::vector<Ciphertext> inputs = {u.randomCipher(7),
                                      u.randomCipher(8)};
    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *u.evaluator, &u.rlk, circuit, inputs);

    // Shrink the memory file until the wide phase cannot keep every
    // leaf resident (but keep room for a handful of values).
    hw::HwConfig tight = u.config;
    tight.slots_per_rpau = 6;
    CompilerOptions options;
    options.hw = tight;
    const CompiledCircuit compiled =
        compiler::compileCircuit(u.params, circuit, options);

    EXPECT_GT(compiled.spilled_polys, 0u);
    EXPECT_GT(compiled.reloaded_polys, 0u);
    EXPECT_GT(compiled.segments.size(), 1u);
    EXPECT_LE(compiled.peak_slots,
              tight.n_rpaus * tight.slots_per_rpau);

    hw::Coprocessor cp(u.params, tight, &u.rlk);
    CircuitRunStats stats;
    const std::vector<Ciphertext> fused =
        compiler::runCompiledCircuit(cp, compiled, inputs, &stats);
    EXPECT_EQ(fused[0], reference[0]);
    EXPECT_EQ(stats.segments, compiled.segments.size());
    EXPECT_GT(stats.dispatches, 1u);

    // The same circuit on the full-size memory file must not spill —
    // and must be modeled-faster than the tight fit.
    CompilerOptions roomy;
    roomy.hw = u.config;
    const CompiledCircuit unpressured =
        compiler::compileCircuit(u.params, circuit, roomy);
    EXPECT_EQ(unpressured.spilled_polys, 0u);
    hw::Coprocessor cp2(u.params, u.config, &u.rlk);
    CircuitRunStats roomy_stats;
    const std::vector<Ciphertext> fused2 = compiler::runCompiledCircuit(
        cp2, unpressured, inputs, &roomy_stats);
    EXPECT_EQ(fused2[0], reference[0]);
    EXPECT_LT(roomy_stats.modeledUs(u.config),
              stats.modeledUs(tight));
}

/** @return the first record @p compiled's segment 0 releases. */
hw::PolyId
firstSegmentRelease(const CompiledCircuit &compiled)
{
    for (size_t a = compiled.resident_action_count;
         a < compiled.segments.at(0).action_end; ++a) {
        const hw::SlotAction &act = compiled.slot_actions[a];
        if (act.kind == hw::SlotAction::Kind::kRelease)
            return act.id;
    }
    return hw::kNoPoly;
}

TEST(Compiler, RunsReturnTheRecordsEarlierSegmentsRelease)
{
    // Record ids address the memory file: a segment binds the records
    // its slot actions allocate and, after its downloads, returns those
    // it releases, so a later segment no longer holds them.
    Universe u(31);
    const Circuit circuit = wideCircuit(4);
    const std::vector<Ciphertext> inputs = {u.randomCipher(7),
                                            u.randomCipher(8)};
    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *u.evaluator, &u.rlk, circuit, inputs);

    const CompiledCircuit op_by_op =
        compiler::compileCircuitOpByOp(u.params, circuit, u.config);
    ASSERT_GT(op_by_op.segments.size(), 1u);
    const hw::PolyId node_record = firstSegmentRelease(op_by_op);
    ASSERT_NE(node_record, hw::kNoPoly);
    hw::Coprocessor cp(u.params, u.config, &u.rlk);
    EXPECT_EQ(compiler::runCircuitOpByOp(cp, u.params, circuit, inputs),
              reference);
    EXPECT_THROW(cp.memory().record(node_record), hw::InvalidRecordError);

    hw::HwConfig tight = u.config;
    tight.slots_per_rpau = 6;
    CompilerOptions options;
    options.hw = tight;
    const CompiledCircuit spilling =
        compiler::compileCircuit(u.params, circuit, options);
    ASSERT_GT(spilling.segments.size(), 1u);
    const hw::PolyId spilled_record = firstSegmentRelease(spilling);
    ASSERT_NE(spilled_record, hw::kNoPoly);
    hw::Coprocessor cp2(u.params, tight, &u.rlk);
    EXPECT_EQ(compiler::runCompiledCircuit(cp2, spilling, inputs),
              reference);
    EXPECT_THROW(cp2.memory().record(spilled_record),
                 hw::InvalidRecordError);
}

TEST(Compiler, RunsBindAboutTheModeledSlots)
{
    // A segment binds each record just before its first touch and
    // returns it right after its last, so the residues bound at once
    // stay near the slot log's peak. Binding a segment's whole range
    // up front held every record of the mult and depth-4 programs.
    Universe u(53);
    CircuitBuilder depth4;
    const ValueId x = depth4.input();
    const ValueId y = depth4.input();
    ValueId acc = depth4.mult(x, y);
    for (int d = 1; d < 4; ++d)
        acc = depth4.mult(acc, acc);
    depth4.output(acc);
    CompilerOptions options;
    options.hw = u.config;
    options.noise_check = compiler::NoiseCheck::kOff;
    const std::vector<Ciphertext> inputs = {u.randomCipher(3),
                                            u.randomCipher(4)};
    const std::pair<const char *, CompiledCircuit> cases[] = {
        {"mult", compiler::compileOpCircuit(u.params, compiler::NodeKind::kMult,
                                            u.config)},
        {"depth4", compiler::compileCircuit(u.params, depth4.build(),
                                            options)}};
    for (const auto &[name, compiled] : cases) {
        hw::Coprocessor cp(u.params, u.config, &u.rlk);
        // Twice: the second run binds over pooled buffers.
        for (int run = 0; run < 2; ++run) {
            EXPECT_EQ(compiler::runCompiledCircuit(cp, compiled, inputs),
                      compiler::evaluateCircuit(*u.evaluator, &u.rlk,
                                                compiled.circuit, inputs))
                << name;
            EXPECT_GT(cp.memory().peakBoundResidues(), 0u) << name;
            EXPECT_LE(cp.memory().peakBoundResidues(),
                      2 * compiled.peak_slots)
                << name << " peak slots " << compiled.peak_slots;
        }
    }
}

/**
 * A one-segment-then-one program no verifier saw: segment 0 adds a
 * fresh record into itself before anything writes it (r2 = r0 + r2,
 * r2 bound at that first touch) and downloads (r2, r1) as the output;
 * its range releases r2, which segment 1 then reads.
 */
CompiledCircuit
handBuiltProgram(const Universe &u, bool touch_after_release)
{
    using hw::SlotAction;
    CompiledCircuit c;
    c.params = u.params;
    c.hw = u.config;
    c.inputs = {0};
    c.outputs = {1};
    c.value_sizes = {2, 2};
    c.value_levels = {0, 0};
    const auto alloc = [](hw::PolyId id) {
        return SlotAction{SlotAction::Kind::kAllocate, id, hw::BaseTag::kQ,
                          hw::Layout::kNatural, 0};
    };
    c.slot_actions = {alloc(0), alloc(1), alloc(2),
                      {SlotAction::Kind::kRelease, 2, hw::BaseTag::kQ,
                       hw::Layout::kNatural, 0}};
    hw::Instruction add;
    add.op = hw::Opcode::kCoeffAdd;
    add.dst = 2;
    add.src0 = 0;
    add.src1 = 2;
    compiler::Segment seg;
    seg.uploads = {{compiler::Transfer::Source::kValue, 0, 0, 0},
                   {compiler::Transfer::Source::kValue, 0, 1, 1}};
    seg.program.instrs = {add};
    seg.downloads = {{compiler::Transfer::Source::kValue, 1, 0, 2},
                     {compiler::Transfer::Source::kValue, 1, 1, 1}};
    seg.action_end = c.slot_actions.size();
    c.segments.push_back(seg);
    if (touch_after_release) {
        compiler::Segment late;
        hw::Instruction read = add;
        read.dst = 0;
        read.src0 = 0;
        read.src1 = 2;
        late.program.instrs = {read};
        late.action_end = c.slot_actions.size();
        c.segments.push_back(late);
    }
    return c;
}

TEST(Compiler, UnverifiedProgramsReadFreshRecordsAsZero)
{
    // Binding at first touch behaves as binding the whole range did:
    // a fresh record reads zero, also over a pooled buffer another run
    // filled, and a record its range released is gone for later
    // segments.
    Universe u(59);
    const std::vector<Ciphertext> inputs = {u.randomCipher(5)};
    hw::Coprocessor cp(u.params, u.config, &u.rlk);
    const CompiledCircuit program = handBuiltProgram(u, false);
    for (int run = 0; run < 2; ++run)
        EXPECT_EQ(compiler::runCompiledCircuit(cp, program, inputs),
                  inputs)
            << "run " << run;

    try {
        compiler::runCompiledCircuit(cp, handBuiltProgram(u, true), inputs);
        FAIL() << "a touch after release must throw";
    } catch (const hw::InvalidRecordError &e) {
        EXPECT_EQ(e.id(), 2u);
    }
}

TEST(Compiler, ResidentInputsBeyondTheMemoryFileAreFatal)
{
    // Eight resident level-0 pairs need 48 slots; the memory file
    // holds 24. The compiler reports the slot pressure as a FatalError.
    Universe u(43);
    CircuitBuilder b;
    ValueId acc = b.input();
    for (int k = 1; k < 8; ++k)
        acc = b.add(acc, b.input());
    b.output(acc);
    CompilerOptions options;
    options.hw = u.config;
    options.hw.slots_per_rpau = 6;
    ASSERT_EQ(options.hw.n_rpaus * options.hw.slots_per_rpau, 24u);
    options.resident_inputs = {0, 1, 2, 3, 4, 5, 6, 7};
    try {
        compiler::compileCircuit(u.params, b.build(), options);
        FAIL() << "expected a FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("resident input"), std::string::npos) << msg;
        EXPECT_NE(msg.find("slots"), std::string::npos) << msg;
    }
}

TEST(Compiler, AllocationFailureReportsSlotPressure)
{
    Universe u(37);
    CircuitBuilder b;
    const ValueId x = b.input();
    const ValueId y = b.input();
    b.output(b.mult(x, y));
    const Circuit circuit = b.build();

    // Too small for even one Mult schedule: compilation must fail with
    // a diagnosable slot-pressure message, not a bare panic.
    hw::HwConfig tiny = u.config;
    tiny.slots_per_rpau = 3;
    CompilerOptions options;
    options.hw = tiny;
    try {
        compiler::compileCircuit(u.params, circuit, options);
        FAIL() << "expected slot-pressure failure";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("slots"), std::string::npos) << msg;
        EXPECT_NE(msg.find("live"), std::string::npos) << msg;
        EXPECT_NE(msg.find("Mult"), std::string::npos) << msg;
    }
}

TEST(Compiler, ValidationRejectsMalformedCircuits)
{
    Universe u(41);
    // 3-element value used by a non-relin consumer.
    {
        CircuitBuilder b;
        const ValueId x = b.input();
        const ValueId t = b.multNoRelin(x, b.input());
        b.output(b.add(t, x));
        EXPECT_THROW(b.build(), FatalError);
    }
    // Relinearizing a 2-element value.
    {
        CircuitBuilder b;
        const ValueId x = b.input();
        b.output(b.relinearize(x));
        EXPECT_THROW(b.build(), FatalError);
    }
    // No outputs.
    {
        CircuitBuilder b;
        const ValueId x = b.input();
        b.add(x, x);
        EXPECT_THROW(b.build(), FatalError);
    }
    // Input count mismatch at submission.
    {
        CircuitBuilder b;
        const ValueId x = b.input();
        b.output(b.add(x, b.input()));
        const Circuit circuit = b.build();
        std::vector<Ciphertext> one = {u.randomCipher(1)};
        EXPECT_THROW(compiler::evaluateCircuit(*u.evaluator, &u.rlk,
                                               circuit, one),
                     FatalError);
        CompilerOptions options;
        options.hw = u.config;
        const CompiledCircuit compiled =
            compiler::compileCircuit(u.params, circuit, options);
        hw::Coprocessor cp(u.params, u.config, &u.rlk);
        EXPECT_THROW(compiler::runCompiledCircuit(cp, compiled, one),
                     FatalError);
    }
}

TEST(Compiler, ThreeElementOutputsAndSharedTensor)
{
    Universe u(43);
    // multNoRelin output downloaded as a 3-element ciphertext, while
    // the same tensor also feeds a relinearization.
    CircuitBuilder b;
    const ValueId x = b.input();
    const ValueId y = b.input();
    const ValueId t = b.multNoRelin(x, y);
    const ValueId r = b.relinearize(t);
    b.output(t);
    b.output(r);
    const Circuit circuit = b.build();

    std::vector<Ciphertext> inputs = {u.randomCipher(9),
                                      u.randomCipher(10)};
    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *u.evaluator, &u.rlk, circuit, inputs);
    ASSERT_EQ(reference[0].size(), 3u);
    ASSERT_EQ(reference[1].size(), 2u);

    CompilerOptions options;
    options.hw = u.config;
    const CompiledCircuit compiled =
        compiler::compileCircuit(u.params, circuit, options);
    hw::Coprocessor cp(u.params, u.config, &u.rlk);
    const std::vector<Ciphertext> fused =
        compiler::runCompiledCircuit(cp, compiled, inputs);
    EXPECT_EQ(fused[0], reference[0]);
    EXPECT_EQ(fused[1], reference[1]);
    EXPECT_EQ(u.decryptor->decrypt(fused[0]),
              u.decryptor->decrypt(reference[0]));
}

TEST(Compiler, ServiceCircuitDeterministicAcrossWorkerCounts)
{
    Universe u(47);
    const Circuit circuit = demoCircuit(u);
    std::vector<Ciphertext> inputs = {u.randomCipher(11),
                                      u.randomCipher(12)};
    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *u.evaluator, &u.rlk, circuit, inputs);

    for (size_t workers : {1u, 2u, 4u}) {
        service::ServiceConfig cfg;
        cfg.workers = workers;
        cfg.max_batch = 3;
        cfg.hw = u.config;
        service::ExecutionService svc(u.params, u.rlk, cfg);

        std::vector<std::future<std::vector<Ciphertext>>> futures;
        for (int i = 0; i < 6; ++i)
            futures.push_back(svc.submitCircuit(circuit, inputs));
        for (auto &f : futures) {
            const std::vector<Ciphertext> outs = f.get();
            ASSERT_EQ(outs.size(), reference.size());
            for (size_t k = 0; k < outs.size(); ++k)
                EXPECT_EQ(outs[k], reference[k])
                    << "workers " << workers << " output " << k;
        }
        svc.drain();
        const service::ServiceStats stats = svc.stats();
        EXPECT_EQ(stats.circuits_completed, 6u);
        EXPECT_GT(stats.circuit_nodes_completed, 0u);
    }
}

TEST(Compiler, ServiceMixesCircuitsWithSingleOps)
{
    Universe u(53, /*t=*/4);
    const Circuit circuit = demoCircuit(u);
    std::vector<Ciphertext> inputs = {u.randomCipher(13),
                                      u.randomCipher(14)};
    const std::vector<Ciphertext> circuit_ref =
        compiler::evaluateCircuit(*u.evaluator, &u.rlk, circuit, inputs);

    service::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 4;
    cfg.hw = u.config;
    cfg.start_paused = true;
    service::ExecutionService svc(u.params, u.rlk, cfg);

    // Interleave op jobs and circuit jobs in the same queue/batches.
    Ciphertext a = u.randomCipher(15);
    Ciphertext bb = u.randomCipher(16);
    auto f_add = svc.submit(service::Op::kAdd, a, bb);
    auto f_circ1 = svc.submitCircuit(circuit, inputs);
    auto f_mul = svc.submit(service::Op::kMult, a, bb);
    auto f_circ2 = svc.submitCircuit(circuit, inputs);
    svc.start();

    EXPECT_EQ(f_add.get(), u.evaluator->add(a, bb));
    EXPECT_EQ(f_mul.get(), u.evaluator->multiply(a, bb, u.rlk));
    const std::vector<Ciphertext> c1 = f_circ1.get();
    const std::vector<Ciphertext> c2 = f_circ2.get();
    for (size_t k = 0; k < circuit_ref.size(); ++k) {
        EXPECT_EQ(c1[k], circuit_ref[k]);
        EXPECT_EQ(c2[k], circuit_ref[k]);
    }
}

TEST(Compiler, CompileOnceSubmitMany)
{
    Universe u(59);
    const Circuit circuit = demoCircuit(u);
    CompilerOptions options;
    options.hw = u.config;
    auto compiled = std::make_shared<const CompiledCircuit>(
        compiler::compileCircuit(u.params, circuit, options));

    service::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.hw = u.config;
    service::ExecutionService svc(u.params, u.rlk, cfg);

    std::vector<std::vector<Ciphertext>> input_sets;
    std::vector<std::future<std::vector<Ciphertext>>> futures;
    for (int i = 0; i < 4; ++i) {
        input_sets.push_back({u.randomCipher(100 + i),
                              u.randomCipher(200 + i)});
        futures.push_back(svc.submitCompiled(compiled,
                                             input_sets.back()));
    }
    for (int i = 0; i < 4; ++i) {
        const std::vector<Ciphertext> reference =
            compiler::evaluateCircuit(*u.evaluator, &u.rlk, circuit,
                                      input_sets[i]);
        const std::vector<Ciphertext> outs = futures[i].get();
        for (size_t k = 0; k < reference.size(); ++k)
            EXPECT_EQ(outs[k], reference[k]) << "set " << i;
    }
}

TEST(Compiler, RotationStepsNormalizeAndIdentityFolds)
{
    Universe u(71);
    const size_t n = u.params->degree();
    const int period =
        static_cast<int>(fv::rotationStepPeriod(n));

    // rotate-by-0 folds away at build time: no node is added.
    {
        CircuitBuilder b;
        const ValueId x = b.input();
        EXPECT_EQ(b.rotate(x, 0), x);
        EXPECT_EQ(b.size(), 1u);
    }

    // Congruent steps resolve to one Galois element — a single key
    // covers both — and produce bit-identical values on every path.
    CircuitBuilder b;
    const ValueId x = b.input();
    const ValueId direct = b.rotate(x, 1);
    const ValueId wrapped = b.rotate(x, 1 + period);
    b.output(direct);
    b.output(wrapped);
    const Circuit circuit = b.build();

    const std::vector<uint32_t> elements =
        compiler::requiredGaloisElements(circuit, n);
    ASSERT_EQ(elements.size(), 1u);
    EXPECT_EQ(elements[0], fv::galoisElementForStep(1, n));

    fv::KeyGenerator keygen(u.params, 72);
    const fv::GaloisKeys gkeys =
        keygen.generateGaloisKeys(u.sk, elements);
    const std::vector<Ciphertext> inputs = {u.randomCipher(73)};

    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *u.evaluator, &u.rlk, circuit, inputs, &gkeys);
    ASSERT_EQ(reference.size(), 2u);
    EXPECT_EQ(reference[0], reference[1]);

    CompilerOptions options;
    options.hw = u.config;
    const CompiledCircuit compiled =
        compiler::compileCircuit(u.params, circuit, options);
    EXPECT_EQ(compiled.galois_elements, elements);
    hw::Coprocessor cp(u.params, u.config, &u.rlk, &gkeys);
    const std::vector<Ciphertext> fused =
        compiler::runCompiledCircuit(cp, compiled, inputs);
    EXPECT_EQ(fused, reference);
}

TEST(Compiler, FullRowRotationLowersToACopyWithoutKeys)
{
    Universe u(81);
    const size_t n = u.params->degree();
    const int period =
        static_cast<int>(fv::rotationStepPeriod(n));

    // A nonzero step that normalizes to zero is only discoverable at
    // element-resolution time; it must lower to a key-free copy on
    // the evaluator, fused and op-by-op paths alike.
    CircuitBuilder b;
    const ValueId x = b.input();
    b.output(b.rotate(x, period));
    const Circuit circuit = b.build();

    EXPECT_TRUE(
        compiler::requiredGaloisElements(circuit, n).empty());

    const std::vector<Ciphertext> inputs = {u.randomCipher(82)};
    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *u.evaluator, &u.rlk, circuit, inputs, /*gkeys=*/nullptr);
    EXPECT_EQ(reference[0], inputs[0]);

    CompilerOptions options;
    options.hw = u.config;
    const CompiledCircuit compiled =
        compiler::compileCircuit(u.params, circuit, options);
    EXPECT_TRUE(compiled.galois_elements.empty());

    // No Galois keys attached anywhere: a key-switch would throw.
    hw::Coprocessor cp(u.params, u.config, &u.rlk);
    EXPECT_EQ(compiler::runCompiledCircuit(cp, compiled, inputs),
              reference);
    EXPECT_EQ(
        compiler::runCircuitOpByOp(cp, u.params, circuit, inputs),
        reference);
}

TEST(Compiler, AutoModSwitchSmallRingThreePaths)
{
    // CompilerOptions::auto_mod_switch rewrites the circuit with level
    // drops before lowering; the compiled form, the op-by-op round
    // trips, and the software evaluator all run the SAME lowered
    // circuit (CompiledCircuit::circuit) and must agree bit for bit.
    Universe u(77);
    CircuitBuilder b;
    ValueId v = b.input();
    for (int i = 0; i < 4; ++i)
        v = b.square(v);
    b.output(v);
    const Circuit circuit = b.build();

    // t = 257 does not batch at n = 256; a constant plaintext keeps
    // every coefficient exact through the squaring chain.
    Plaintext m;
    m.coeffs = {2};
    std::vector<Ciphertext> inputs = {u.encryptor->encrypt(m)};

    CompilerOptions options;
    options.hw = u.config;
    options.auto_mod_switch = true;
    const CompiledCircuit compiled =
        compiler::compileCircuit(u.params, circuit, options);

    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        *u.evaluator, &u.rlk, compiled.circuit, inputs);
    hw::Coprocessor cp(u.params, u.config, &u.rlk);
    const std::vector<Ciphertext> fused =
        compiler::runCompiledCircuit(cp, compiled, inputs);
    hw::Coprocessor cp2(u.params, u.config, &u.rlk);
    const std::vector<Ciphertext> op_by_op = compiler::runCircuitOpByOp(
        cp2, u.params, compiled.circuit, inputs);

    EXPECT_EQ(fused, reference);
    EXPECT_EQ(op_by_op, reference);
    ASSERT_EQ(fused.size(), 1u);
    EXPECT_EQ(fused[0].level,
              compiled.value_levels[compiled.circuit.outputs[0]]);
    // 2^(2^4) = 65536 = 1 (mod 257).
    EXPECT_EQ(u.decryptor->decrypt(fused[0]).coeffs[0], 1u);
}

TEST(Compiler, AutoModSwitchPaperDepthEightThreePaths)
{
    // The acceptance story of the level assignment: a depth-8 squaring
    // chain on the paper set at t = 17 — double the depth-4 sizing,
    // rejected outright without level drops — compiles under kReject
    // with auto_mod_switch, runs bit-identically on all three
    // execution paths, lands deep in the modulus chain, and decrypts
    // exactly.
    auto params = fv::FvParams::paper(17);
    fv::KeyGenerator keygen(params, 201);
    const fv::SecretKey sk = keygen.generateSecretKey();
    const fv::PublicKey pk = keygen.generatePublicKey(sk);
    const fv::RelinKeys rlk = keygen.generateRelinKeys(sk);
    fv::Encryptor encryptor(params, pk, 202);
    fv::Decryptor decryptor(params, fv::SecretKey{sk.s_ntt});
    fv::Evaluator evaluator(params);

    CircuitBuilder b;
    ValueId v = b.input();
    for (int i = 0; i < 8; ++i)
        v = b.square(v);
    b.output(v);

    CompilerOptions options;
    options.noise_check = compiler::NoiseCheck::kReject;
    options.auto_mod_switch = true;
    const CompiledCircuit compiled =
        compiler::compileCircuit(params, b.build(), options);
    EXPECT_GT(compiled.min_output_noise_budget_bits, 0.0);

    Plaintext m;
    m.coeffs = {2};
    std::vector<Ciphertext> inputs = {encryptor.encrypt(m)};

    const std::vector<Ciphertext> reference = compiler::evaluateCircuit(
        evaluator, &rlk, compiled.circuit, inputs);
    hw::Coprocessor cp(params, compiled.hw, &rlk);
    const std::vector<Ciphertext> fused =
        compiler::runCompiledCircuit(cp, compiled, inputs);
    hw::Coprocessor cp2(params, compiled.hw, &rlk);
    const std::vector<Ciphertext> op_by_op = compiler::runCircuitOpByOp(
        cp2, params, compiled.circuit, inputs);

    EXPECT_EQ(fused, reference);
    EXPECT_EQ(op_by_op, reference);
    ASSERT_EQ(fused.size(), 1u);
    EXPECT_GT(fused[0].level, 0u);
    EXPECT_GT(decryptor.invariantNoiseBudget(fused[0]), 0.0);
    // 2^(2^8) mod 17: ord(2) = 8 divides 256, so the chain lands on 1.
    const Plaintext out = decryptor.decrypt(fused[0]);
    EXPECT_EQ(out.coeffs[0], 1u);
    for (size_t i = 1; i < out.coeffs.size(); ++i)
        ASSERT_EQ(out.coeffs[i], 0u) << "coeff " << i;
}

TEST(Compiler, ResidentInputsColdAndWarmMatchAllThreePaths)
{
    // Compile the demo circuit with its first input pinned as
    // coprocessor-resident. The cold run uploads and pins it; warm
    // reruns skip its upload entirely — and all execution paths (fused
    // cold, fused warm, op-by-op, evaluateCircuit) stay bit-identical.
    Universe u(19);
    const Circuit circuit = demoCircuit(u);

    CompilerOptions options;
    options.hw = u.config;
    // A pinned input can never be spilled, so the tight test-sized
    // memory file needs one more RPAU than the spill-free baseline.
    options.hw.n_rpaus += 1;
    options.resident_inputs = {0};
    const CompiledCircuit compiled =
        compiler::compileCircuit(u.params, circuit, options);
    ASSERT_EQ(compiled.resident_inputs, std::vector<uint32_t>{0});
    ASSERT_EQ(compiled.resident_slots.size(), 1u);
    ASSERT_GT(compiled.resident_action_count, 0u);
    // Pinned slots are the record-id prefix a warm replay resumes after.
    EXPECT_EQ(compiled.resident_slots[0][0], 0u);
    EXPECT_EQ(compiled.resident_slots[0][1], 1u);

    const Ciphertext hot = u.randomCipher(1);
    const Ciphertext y1 = u.randomCipher(2);
    const Ciphertext y2 = u.randomCipher(3);
    const std::vector<Ciphertext> inputs1 = {hot, y1};
    const std::vector<Ciphertext> inputs2 = {hot, y2};

    const std::vector<Ciphertext> ref1 = compiler::evaluateCircuit(
        *u.evaluator, &u.rlk, circuit, inputs1);
    const std::vector<Ciphertext> ref2 = compiler::evaluateCircuit(
        *u.evaluator, &u.rlk, circuit, inputs2);

    hw::Coprocessor cp(u.params, compiled.hw, &u.rlk);
    CircuitRunStats cold_stats;
    const std::vector<Ciphertext> cold =
        compiler::runCompiledCircuit(cp, compiled, inputs1, &cold_stats);
    EXPECT_EQ(cold, ref1);
    EXPECT_EQ(cp.memory().pinnedRecords(), 2u);

    // Warm rerun, same request operand: bit-identical to the cold run,
    // with exactly the two pinned polynomial uploads saved.
    CircuitRunStats warm_stats;
    const std::vector<Ciphertext> warm = compiler::runCompiledCircuitWarm(
        cp, compiled, std::vector<Ciphertext>{y1}, &warm_stats);
    EXPECT_EQ(warm, cold);
    EXPECT_EQ(warm_stats.uploaded_polys + 2, cold_stats.uploaded_polys);
    EXPECT_LT(warm_stats.modeledUs(compiled.hw),
              cold_stats.modeledUs(compiled.hw));

    // Warm rerun with a fresh request operand still computes over the
    // pinned database: matches the evaluator on {hot, y2}.
    const std::vector<Ciphertext> warm2 =
        compiler::runCompiledCircuitWarm(cp, compiled,
                                         std::vector<Ciphertext>{y2});
    EXPECT_EQ(warm2, ref2);

    // Third path: the unfused per-op baseline agrees too.
    hw::Coprocessor cp2(u.params, compiled.hw, &u.rlk);
    const std::vector<Ciphertext> op_by_op = compiler::runCircuitOpByOp(
        cp2, u.params, circuit, inputs1);
    EXPECT_EQ(op_by_op, ref1);

    // Warm execution on a coprocessor that holds no pins is refused.
    hw::Coprocessor cp3(u.params, compiled.hw, &u.rlk);
    EXPECT_THROW(compiler::runCompiledCircuitWarm(
                     cp3, compiled, std::vector<Ciphertext>{y1}),
                 FatalError);
}

TEST(Compiler, OpByOpArtifactIsPricedAndVerified)
{
    // The op-by-op baseline is a compiled program like any other: the
    // static verifier accepts it, its kPerInstruction static price is
    // exactly what runCircuitOpByOp reports, and its outputs match the
    // evaluator. One segment and one round trip per emitted node.
    Universe u(91);
    fv::KeyGenerator keygen(u.params, 92);
    const fv::GaloisKeys gkeys = keygen.generateRotationKeys(u.sk);
    const int period =
        static_cast<int>(fv::rotationStepPeriod(u.params->degree()));

    struct Case
    {
        const char *name;
        Circuit circuit;
        hw::HwConfig hw;
    };
    std::vector<Case> cases;
    cases.push_back({"demo", demoCircuit(u), u.config});
    {
        // A hoist group (with an identity member), a lone column swap
        // and a rotate-and-sum.
        CircuitBuilder b;
        const ValueId x = b.input();
        const ValueId s = b.add(b.rotate(x, 1), b.rotate(x, 2));
        b.output(b.rotateSum(s));
        b.output(b.rotate(x, period));
        b.output(b.rotateColumns(x));
        cases.push_back({"rotation", b.build(), u.config});
    }
    {
        CircuitBuilder b;
        const ValueId x = b.input();
        const ValueId y = b.input();
        const ValueId z = b.input();
        const ValueId deep = b.modSwitch(b.mult(x, y));
        b.output(b.mult(deep, b.modSwitch(z)));
        cases.push_back({"mod-switch", b.build(), u.config});
    }
    {
        // Spills when fused; op by op, each node fits on its own.
        hw::HwConfig tight = u.config;
        tight.slots_per_rpau = 6;
        cases.push_back({"spilling", wideCircuit(4), tight});
    }

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const CompiledCircuit compiled =
            compiler::compileCircuitOpByOp(u.params, c.circuit, c.hw);
        testing::expectVerifiesClean(compiled, c.name);
        size_t emitted_nodes = 0;
        for (const compiler::CircuitNode &node : c.circuit.nodes)
            emitted_nodes += node.kind != compiler::NodeKind::kInput &&
                             node.kind != compiler::NodeKind::kRelin;
        EXPECT_EQ(compiled.segments.size(), emitted_nodes);

        std::vector<Ciphertext> inputs;
        for (size_t k = 0; k < c.circuit.inputs.size(); ++k)
            inputs.push_back(u.randomCipher(930 + k));
        hw::Coprocessor cp(u.params, c.hw, &u.rlk, &gkeys);
        CircuitRunStats stats;
        const std::vector<Ciphertext> out = compiler::runCircuitOpByOp(
            cp, u.params, c.circuit, inputs, &stats);
        EXPECT_EQ(out, compiler::evaluateCircuit(*u.evaluator, &u.rlk,
                                                 c.circuit, inputs,
                                                 &gkeys));
        EXPECT_EQ(compiler::attributeCompiledCircuit(
                      compiled, hw::DispatchMode::kPerInstruction)
                      .cold.totals,
                  stats);
        EXPECT_EQ(stats.segments, emitted_nodes);
        EXPECT_EQ(stats.dispatches, stats.instructions);
    }
}

TEST(Compiler, OpByOpOfOneNodeIsTheServedOpCircuit)
{
    // A one-node add or mult lowers op by op to exactly the program the
    // paper tables price (compileOpCircuit), at the same
    // kPerInstruction price.
    const auto params = fv::FvParams::paper();
    const hw::HwConfig config = hw::HwConfig::paper();
    for (compiler::NodeKind kind :
         {compiler::NodeKind::kAdd, compiler::NodeKind::kMult}) {
        SCOPED_TRACE(compiler::nodeKindName(kind));
        CircuitBuilder b;
        const ValueId x = b.input();
        const ValueId y = b.input();
        b.output(kind == compiler::NodeKind::kAdd ? b.add(x, y)
                                                  : b.mult(x, y));
        const CompiledCircuit op_by_op =
            compiler::compileCircuitOpByOp(params, b.build(), config);
        const CompiledCircuit served =
            compiler::compileOpCircuit(params, kind, config);
        ASSERT_EQ(op_by_op.segments.size(), served.segments.size());
        for (size_t s = 0; s < served.segments.size(); ++s) {
            EXPECT_EQ(op_by_op.segments[s].uploads,
                      served.segments[s].uploads);
            EXPECT_EQ(op_by_op.segments[s].program,
                      served.segments[s].program);
            EXPECT_EQ(op_by_op.segments[s].downloads,
                      served.segments[s].downloads);
        }
        EXPECT_EQ(compiler::attributeCompiledCircuit(
                      op_by_op, hw::DispatchMode::kPerInstruction)
                      .cold.totals,
                  compiler::attributeCompiledCircuit(
                      served, hw::DispatchMode::kPerInstruction)
                      .cold.totals);
    }
}

} // namespace
} // namespace heat
