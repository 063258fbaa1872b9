/**
 * @file
 * Integration tests of the coprocessor: memory file discipline, the
 * compiled one-node FV.Mult program (Table II instruction mix, the
 * program profileMultJob prices), bit-exact golden comparison of the
 * simulated FV.Mult against the software evaluator, end-to-end
 * decryption of hardware-produced ciphertexts, timing against Tables
 * I-II and the two-coprocessor system throughput (Sec. VI-A).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/panic.h"
#include "compiler/circuit.h"
#include "compiler/compiler.h"
#include "fv/decryptor.h"
#include "fv/encryptor.h"
#include "fv/evaluator.h"
#include "fv/keygen.h"
#include "hw/arm_host.h"
#include "hw/coprocessor.h"
#include "hw/system.h"

namespace heat::hw {
namespace {

using fv::ArithPath;
using fv::Ciphertext;
using fv::Plaintext;

/** Small-ring fixture so functional tests run fast. */
struct SmallRig
{
    SmallRig()
    {
        fv::FvConfig cfg;
        cfg.degree = 256;
        cfg.plain_modulus = 4;
        cfg.sigma = 3.2;
        cfg.q_prime_count = 3;
        params = fv::FvParams::create(cfg);
        keygen = std::make_unique<fv::KeyGenerator>(params, 99);
        sk = keygen->generateSecretKey();
        pk = keygen->generatePublicKey(sk);
        rlk = keygen->generateRelinKeys(sk);
        encryptor = std::make_unique<fv::Encryptor>(params, pk, 100);
        decryptor = std::make_unique<fv::Decryptor>(params, sk);
        evaluator = std::make_unique<fv::Evaluator>(params, ArithPath::kHps);
        // The small base has 3+4 primes -> 4 RPAUs.
        config = HwConfig::paper();
        config.n_rpaus = 4;
    }

    Plaintext
    somePlain(uint64_t seed) const
    {
        Xoshiro256 rng(seed);
        Plaintext p;
        p.coeffs.resize(params->degree());
        for (auto &c : p.coeffs)
            c = rng.uniformBelow(params->plainModulus());
        return p;
    }

    std::shared_ptr<const fv::FvParams> params;
    std::unique_ptr<fv::KeyGenerator> keygen;
    fv::SecretKey sk;
    fv::PublicKey pk;
    fv::RelinKeys rlk;
    std::unique_ptr<fv::Encryptor> encryptor;
    std::unique_ptr<fv::Decryptor> decryptor;
    std::unique_ptr<fv::Evaluator> evaluator;
    HwConfig config;
};

TEST(MemoryFile, AllocationAccounting)
{
    auto params = fv::FvParams::paper();
    MemoryFile mem(params, HwConfig::paper());
    EXPECT_EQ(mem.capacity(), 84u);
    PolyId a = mem.allocate(BaseTag::kQ);
    EXPECT_EQ(mem.slotsInUse(), 6u);
    PolyId b = mem.allocate(BaseTag::kFull);
    EXPECT_EQ(mem.slotsInUse(), 19u);
    mem.extendToFull(a);
    EXPECT_EQ(mem.slotsInUse(), 26u);
    mem.release(b);
    EXPECT_EQ(mem.slotsInUse(), 13u);
    EXPECT_EQ(mem.peakSlots(), 26u);
    // Released records stay readable.
    EXPECT_NO_THROW(mem.record(b));
    mem.free(a);
    EXPECT_THROW(mem.record(a), PanicError);
}

TEST(MemoryFile, InvalidRecordAccessNamesTheRecord)
{
    auto params = fv::FvParams::paper();
    MemoryFile mem(params, HwConfig::paper());
    const PolyId a = mem.allocate(BaseTag::kQ);

    // Out-of-range id: the error carries the id and the record count.
    try {
        mem.record(a + 41);
        FAIL() << "out-of-range access must throw";
    } catch (const InvalidRecordError &e) {
        EXPECT_EQ(e.id(), a + 41);
        EXPECT_NE(std::string(e.what()).find("records exist"),
                  std::string::npos)
            << e.what();
    }

    // Freed record: same typed error, different cause in the message.
    mem.free(a);
    try {
        mem.record(a);
        FAIL() << "freed-record access must throw";
    } catch (const InvalidRecordError &e) {
        EXPECT_EQ(e.id(), a);
        EXPECT_NE(std::string(e.what()).find("freed"),
                  std::string::npos)
            << e.what();
    }

    // The typed error still is a PanicError, so existing broad
    // handlers keep working.
    EXPECT_THROW(mem.exportPoly(a), PanicError);
}

TEST(MemoryFile, ExhaustionIsFatal)
{
    auto params = fv::FvParams::paper();
    MemoryFile mem(params, HwConfig::paper());
    // 84 slots / 13 per full poly = 6 polys fit, the 7th does not.
    for (int i = 0; i < 6; ++i)
        mem.allocate(BaseTag::kFull);
    EXPECT_THROW(mem.allocate(BaseTag::kFull), FatalError);
}

TEST(MemoryFile, ReusedBuffersReadAsZeroAfterReset)
{
    // reset() keeps the dropped records' buffers for later allocations;
    // a reused buffer must still read as a freshly zeroed record.
    SmallRig rig;
    MemoryFile mem(rig.params, rig.config);
    ntt::RnsPoly poly(rig.params->qBase(), rig.params->degree());
    for (auto &x : poly.data())
        x = 1;
    const PolyId q = mem.import(poly, Layout::kNatural);
    mem.extendToFull(q);
    mem.import(poly, Layout::kNatural);
    mem.reset();

    const PolyId full = mem.allocate(BaseTag::kFull);
    const PolyId small = mem.allocate(BaseTag::kQ);
    EXPECT_EQ(full, 0u);
    for (const PolyId id : {full, small}) {
        const PolyRecord &rec = mem.record(id);
        EXPECT_EQ(rec.data.size(),
                  mem.liveResidues(rec.base, 0) * rig.params->degree());
        EXPECT_TRUE(std::all_of(rec.data.begin(), rec.data.end(),
                                [](uint64_t x) { return x == 0; }))
            << "record " << id;
    }
}

TEST(MemoryFile, ResetToPinnedKeepsPinnedData)
{
    SmallRig rig;
    MemoryFile mem(rig.params, rig.config);
    ntt::RnsPoly pinned(rig.params->qBase(), rig.params->degree());
    ntt::RnsPoly dropped(rig.params->qBase(), rig.params->degree());
    for (size_t i = 0; i < pinned.data().size(); ++i) {
        pinned.data()[i] = i % 7 + 1;
        dropped.data()[i] = i % 5 + 1;
    }
    const PolyId keep = mem.import(pinned, Layout::kNatural);
    mem.import(dropped, Layout::kNatural);
    mem.setPinnedRecords(1);
    mem.resetToPinned();

    EXPECT_EQ(mem.exportPoly(keep).data(), pinned.data());
    EXPECT_EQ(mem.slotsInUse(), rig.params->qBase()->size());
    const PolyId fresh = mem.allocate(BaseTag::kQ);
    EXPECT_EQ(fresh, 1u);
    const std::vector<uint64_t> &data = mem.record(fresh).data;
    EXPECT_TRUE(std::all_of(data.begin(), data.end(),
                            [](uint64_t x) { return x == 0; }));
}

TEST(MemoryFile, SlotReplayOnDirtyMemoryFilePanics)
{
    // A compiled program's slot log only replays onto a freshly reset
    // memory file; replaying over live records must be rejected, not
    // silently bind the program to the wrong slots.
    SmallRig rig;
    const compiler::CompiledCircuit add = compiler::compileOpCircuit(
        rig.params, compiler::NodeKind::kAdd, rig.config);
    MemoryFile mem(rig.params, rig.config);
    mem.allocate(BaseTag::kQ);
    try {
        replaySlotActions(mem, add.slot_actions);
        FAIL() << "replay onto a dirty memory file must panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("slot replay diverged"),
                  std::string::npos)
            << e.what();
    }
    mem.reset();
    EXPECT_NO_THROW(replaySlotActions(mem, add.slot_actions));
}

TEST(MemoryFile, ImportExportRoundTrip)
{
    SmallRig rig;
    MemoryFile mem(rig.params, rig.config);
    ntt::RnsPoly poly(rig.params->qBase(), rig.params->degree());
    Xoshiro256 rng(7);
    for (size_t i = 0; i < poly.residueCount(); ++i) {
        for (auto &x : poly.residue(i))
            x = rng.uniformBelow(rig.params->qBase()->modulus(i).value());
    }
    PolyId id = mem.import(poly, Layout::kNatural);
    EXPECT_EQ(mem.exportPoly(id).data(), poly.data());
}

TEST(CompiledMult, MatchesTableIIInstructionMix)
{
    auto params = fv::FvParams::paper();
    const compiler::CompiledCircuit mult = compiler::compileOpCircuit(
        params, compiler::NodeKind::kMult, HwConfig::paper());
    ASSERT_EQ(mult.segments.size(), 1u);

    std::map<Opcode, int> counts;
    for (const auto &i : mult.segments[0].program.instrs)
        ++counts[i.op];
    // Table II call counts (CoeffAdd: we schedule 14, the paper lists 26).
    EXPECT_EQ(counts[Opcode::kNtt], 14);
    EXPECT_EQ(counts[Opcode::kIntt], 8);
    EXPECT_EQ(counts[Opcode::kCoeffMul], 20);
    EXPECT_EQ(counts[Opcode::kCoeffAdd], 14);
    EXPECT_EQ(counts[Opcode::kRearrange], 22);
    EXPECT_EQ(counts[Opcode::kLift], 4);
    EXPECT_EQ(counts[Opcode::kScale], 3);
    EXPECT_EQ(counts[Opcode::kKeyLoad], 6);
}

TEST(CompiledMult, FitsTheMemoryFile)
{
    auto params = fv::FvParams::paper();
    const HwConfig config = HwConfig::paper();
    const compiler::CompiledCircuit mult =
        compiler::compileOpCircuit(params, compiler::NodeKind::kMult, config);
    // Peak pressure must fit the 84-slot budget of Table IV, without
    // spilling.
    EXPECT_LE(mult.peak_slots, config.n_rpaus * config.slots_per_rpau);
    EXPECT_GE(mult.peak_slots, 70u); // and genuinely tight
    EXPECT_EQ(mult.spilled_polys, 0u);
}

TEST(CoprocessorFunctional, AddMatchesEvaluator)
{
    SmallRig rig;
    Ciphertext x = rig.encryptor->encrypt(rig.somePlain(1));
    Ciphertext y = rig.encryptor->encrypt(rig.somePlain(2));

    Coprocessor cp(rig.params, rig.config, &rig.rlk);
    const std::vector<Ciphertext> out = compiler::runCompiledCircuit(
        cp,
        compiler::compileOpCircuit(rig.params, compiler::NodeKind::kAdd,
                                   rig.config),
        std::vector<Ciphertext>{x, y});
    EXPECT_EQ(out.at(0), rig.evaluator->add(x, y));
}

TEST(CoprocessorFunctional, MultBitExactAgainstEvaluator)
{
    // The coprocessor and the software evaluator share every arithmetic
    // kernel, so the simulated Mult must be bit-identical to the HPS
    // evaluator path.
    SmallRig rig;
    Ciphertext x = rig.encryptor->encrypt(rig.somePlain(3));
    Ciphertext y = rig.encryptor->encrypt(rig.somePlain(4));

    Coprocessor cp(rig.params, rig.config, &rig.rlk);
    const std::vector<Ciphertext> out = compiler::runCompiledCircuit(
        cp,
        compiler::compileOpCircuit(rig.params, compiler::NodeKind::kMult,
                                   rig.config),
        std::vector<Ciphertext>{x, y});
    EXPECT_EQ(out.at(0), rig.evaluator->multiply(x, y, rig.rlk));
}

TEST(CoprocessorFunctional, MultDecryptsToProduct)
{
    SmallRig rig;
    Plaintext m0 = rig.somePlain(5);
    Plaintext m1 = rig.somePlain(6);
    Ciphertext x = rig.encryptor->encrypt(m0);
    Ciphertext y = rig.encryptor->encrypt(m1);

    Coprocessor cp(rig.params, rig.config, &rig.rlk);
    const std::vector<Ciphertext> out = compiler::runCompiledCircuit(
        cp,
        compiler::compileOpCircuit(rig.params, compiler::NodeKind::kMult,
                                   rig.config),
        std::vector<Ciphertext>{x, y});
    Plaintext hw_plain = rig.decryptor->decrypt(out.at(0));

    // Reference product mod (x^n + 1, t).
    const uint64_t t = rig.params->plainModulus();
    const size_t n = rig.params->degree();
    std::vector<uint64_t> expect(n, 0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            uint64_t prod = m0.coeffs[i] * m1.coeffs[j] % t;
            size_t k = i + j;
            if (k < n)
                expect[k] = (expect[k] + prod) % t;
            else
                expect[k - n] = (expect[k - n] + t - prod) % t;
        }
    }
    for (size_t i = 0; i < n; ++i) {
        uint64_t got = i < hw_plain.coeffs.size() ? hw_plain.coeffs[i] : 0;
        ASSERT_EQ(got, expect[i]) << "coefficient " << i;
    }
}

TEST(CoprocessorFunctional, ProgramReusableAcrossRuns)
{
    // The service compiles each op once and reruns it on the same
    // worker: every run resets and replays over the previous one.
    SmallRig rig;
    Coprocessor cp(rig.params, rig.config, &rig.rlk);
    const compiler::CompiledCircuit mult = compiler::compileOpCircuit(
        rig.params, compiler::NodeKind::kMult, rig.config);

    for (uint64_t round = 0; round < 2; ++round) {
        Ciphertext x = rig.encryptor->encrypt(rig.somePlain(10 + round));
        Ciphertext y = rig.encryptor->encrypt(rig.somePlain(20 + round));
        const std::vector<Ciphertext> out = compiler::runCompiledCircuit(
            cp, mult, std::vector<Ciphertext>{x, y});
        EXPECT_EQ(out.at(0), rig.evaluator->multiply(x, y, rig.rlk));
    }
}

TEST(CoprocessorTiming, TableIIPerInstructionTimes)
{
    auto params = fv::FvParams::paper();
    HwConfig config = HwConfig::paper();
    Coprocessor cp(params, config);

    auto us_of = [&](Opcode op) {
        Instruction i;
        i.op = op;
        return config.cyclesToUs(cp.instructionCycles(i));
    };
    // Table II: NTT 73.0, Inverse-NTT 85.0, CMul 13.1, CAdd 13.6,
    // Rearrange 20.8, Lift 82.6, Scale 82.7 (us). Model within ~15%.
    EXPECT_NEAR(us_of(Opcode::kNtt), 73.0, 6.0);
    EXPECT_NEAR(us_of(Opcode::kIntt), 85.0, 7.0);
    EXPECT_NEAR(us_of(Opcode::kCoeffMul), 13.1, 2.0);
    EXPECT_NEAR(us_of(Opcode::kCoeffAdd), 13.6, 2.0);
    EXPECT_NEAR(us_of(Opcode::kRearrange), 20.8, 3.1);
    EXPECT_NEAR(us_of(Opcode::kLift), 82.6, 8.0);
    EXPECT_NEAR(us_of(Opcode::kScale), 82.7, 8.0);
}

TEST(CoprocessorTiming, MultMatchesTableI)
{
    // Table I: Mult in HW 5,349,567 Arm cycles = 4.458 ms, measured
    // with one Arm dispatch per instruction (kPerInstruction).
    auto params = fv::FvParams::paper();
    HwConfig config = HwConfig::paper();
    Coprocessor cp(params, config);
    const compiler::CompiledCircuit mult =
        compiler::compileOpCircuit(params, compiler::NodeKind::kMult, config);

    double total_us = 0.0;
    for (const auto &i : mult.segments.at(0).program.instrs) {
        total_us += config.cyclesToUs(cp.instructionCycles(i));
        total_us += cp.instructionDmaUs(i);
    }
    EXPECT_NEAR(total_us / 1000.0, 4.458, 0.45); // within 10%
}

TEST(CoprocessorTiming, AddMatchesTableI)
{
    // Table I: Add in HW 31,339 Arm cycles = 26 us.
    auto params = fv::FvParams::paper();
    HwConfig config = HwConfig::paper();
    Coprocessor cp(params, config);
    Instruction add;
    add.op = Opcode::kCoeffAdd;
    const double us = 2.0 * config.cyclesToUs(cp.instructionCycles(add));
    EXPECT_NEAR(us, 26.0, 3.0);
}

TEST(ArmHost, TableITransferAndSwAdd)
{
    auto params = fv::FvParams::paper();
    ArmHostModel host(params, HwConfig::paper());
    // Table I: send two ciphertexts 362 us, receive one 180 us,
    // Add in SW 45.57 ms.
    EXPECT_NEAR(host.sendCiphertextsUs(2), 362.0, 15.0);
    EXPECT_NEAR(host.receiveCiphertextUs(), 180.0, 8.0);
    EXPECT_NEAR(host.softwareAddUs() / 1000.0, 45.567, 1.0);
    // The paper: SW add is ~80x slower than HW add incl. transfers.
    const double hw_add_total =
        26.0 + host.sendCiphertextsUs(2) + host.receiveCiphertextUs();
    EXPECT_NEAR(host.softwareAddUs() / hw_add_total, 80.0, 12.0);
}

TEST(HeatSystem, Throughput400MultPerSecond)
{
    // Sec. VI-A: two coprocessors give ~400 Mult/s.
    auto params = fv::FvParams::paper();
    HeatSystem system(params, HwConfig::paper(), 2);
    ThroughputResult r = system.simulate(200);
    EXPECT_NEAR(r.mults_per_second, 400.0, 45.0);
    EXPECT_LT(r.dma_utilization, 1.0);
}

TEST(HeatSystem, TwoCoprocessorsNearlyDoubleThroughput)
{
    auto params = fv::FvParams::paper();
    HeatSystem one(params, HwConfig::paper(), 1);
    HeatSystem two(params, HwConfig::paper(), 2);
    const double t1 = one.simulate(100).mults_per_second;
    const double t2 = two.simulate(100).mults_per_second;
    EXPECT_GT(t2, 1.8 * t1);
    EXPECT_LE(t2, 2.05 * t1);
}

TEST(HeatSystem, TraditionalArchitectureIsSlower)
{
    // Sec. VI-C: the traditional-CRT coprocessor needs 8.3 ms per Mult
    // (225 MHz, 4 Lift/Scale cores) versus 4.458 ms for HPS — slower,
    // but less than 2x because relin keys are 3x smaller. Our model
    // charges the same 6-digit key schedule, so expect <2.2x.
    auto params = fv::FvParams::paper();
    HeatSystem fast(params, HwConfig::paper(), 1);
    HeatSystem slow(params, HwConfig::paperTraditional(), 1);
    const double fast_ms =
        fast.profile().compute_us / 1000.0 +
        fast.profile().key_dma_us * fast.profile().key_segments / 1000.0;
    const double slow_ms =
        slow.profile().compute_us / 1000.0 +
        slow.profile().key_dma_us * slow.profile().key_segments / 1000.0;
    EXPECT_GT(slow_ms, fast_ms);
    EXPECT_LT(slow_ms, 2.2 * fast_ms);
    EXPECT_NEAR(slow_ms, 8.3, 1.2);
}

} // namespace
} // namespace heat::hw
